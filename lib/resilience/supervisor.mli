(** Supervised control loop: the one epoch loop of the market.

    Every epoch advances the market model ([Poc_market.Epochs.advance]:
    cost drift, strategy recalls, demand growth) and re-runs the VCG
    auction over the offer pool (Section 3.3).  On top it applies a
    compiled {!Fault} schedule ({!Fault.none} for the plain market),
    engages the degradation {!Ladder} whenever an epoch's auction is
    infeasible, carries the last fully-healthy selection forward (minus
    dead links) when even the ladder is exhausted, and only reports a
    blackout when nothing at all can be leased.

    Each epoch is one trace span, timed into [poc_epoch_seconds]; each
    of its phases is a child span timed into its own histogram:
    [poc_phase_drift_seconds], [poc_phase_auction_seconds],
    [poc_phase_routing_seconds], [poc_phase_settlement_seconds] and,
    with a journal, [poc_phase_journal_seconds].

    After every epoch it asserts the cross-layer invariants the paper's
    operational story depends on — the settlement ledger passes
    [Settlement.check] (zero-sum, finite posted price), the epoch price
    is finite, delivered traffic never exceeds surviving capacity — and
    collects any breach in {!field:report.violations} (expected empty).

    Everything is deterministic from the market seed and the compiled
    schedule: identical inputs produce byte-identical incident logs
    ({!render_incidents}).

    {2 Durability}

    [run ~journal:path] additionally writes a crash-safe {!Journal}
    store directory at [path]: one flushed record per epoch plus a
    carry-forward snapshot every [snapshot_every] epochs.  With
    [~segment_bytes] the store rotates past the byte budget and
    garbage-collects history older than the newest durable checkpoint;
    without it the budget is unbounded (see {!Journal}).  If the process dies mid-run — including at an
    injected {!Fault.Crash} or {!Fault.Storage} point — {!resume}
    replays the journal's valid prefix, restores the snapshot state,
    and continues the run to completion.  The resumed report (epochs,
    incidents, rendered strings) is byte-identical to an uninterrupted
    run with the same seed and schedule. *)

type status = Journal.status =
  | Healthy                    (** auction cleared under the plan's rule *)
  | Degraded of Ladder.step    (** ladder rung that kept service up *)
  | Carried                    (** last healthy selection carried forward *)
  | Blackout                   (** nothing leasable this epoch *)

type epoch_report = Journal.epoch_report = {
  epoch : int;
  status : status;
  spend : float;               (** POC spend; 0 in a blackout *)
  price_per_gbps : float;      (** spend / offered volume; 0 in a blackout *)
  delivered_fraction : float;  (** routed / offered at full (unrelaxed) demand *)
  selected_links : int;
  recalled_links : int;        (** strategy-driven recalls this epoch *)
  active_faults : int;         (** injected links currently down or withdrawn *)
  ladder_attempts : int;       (** rungs tried this epoch (0 when healthy) *)
  ledger_conservation : float option; (** Σ net over parties; None in blackout *)
  posted_price : float option; (** break-even usage price; None in blackout *)
}

type incident = {
  start_epoch : int;
  trigger : string;            (** fault events at the start epoch, or
                                   ["market stress"] for drift-induced failures *)
  response : status;           (** service level at the start epoch *)
  attempts : int;              (** ladder rungs tried at the start epoch *)
  recovery_epoch : int option; (** first healthy epoch at or after the start;
                                   [None] when the run ends degraded *)
  spend_penalty : float;       (** Σ (spend − last healthy spend) over the
                                   degraded span *)
}

type violation = Journal.violation = {
  epoch : int;
  invariant : string;
  detail : string;
}

type report = {
  epochs : epoch_report list;     (** chronological *)
  incidents : incident list;      (** chronological *)
  violations : violation list;    (** invariant breaches; expected [] *)
  ladder_activations : int;       (** epochs on which the ladder engaged *)
  final_plan : Poc_core.Planner.plan option;
      (** pseudo-plan of the last epoch that produced an outcome;
          feed it to [Settlement.of_plan] for the closing ledger *)
}

exception Injected_crash of { epoch : int; phase : Fault.phase }
(** Raised by {!run} when the schedule contains a {!Fault.Crash} or
    {!Fault.Storage} spec and the loop reaches that epoch and phase.
    The journal (if any) is closed first, leaving on disk exactly what
    a real crash at that point would: a clean prefix for [Pre_auction]
    and [Post_settle], a torn final record for [Pre_settle].  For a
    [Storage] spec, {!Disk.power_cut} damages the on-disk journal state
    after the close and before the raise. *)

val run :
  ?journal:string ->
  ?flight:Black_box.t ->
  ?snapshot_every:int ->
  ?segment_bytes:int ->
  ?disk:Disk.t ->
  ?pool:Poc_util.Pool.t ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  schedule:Fault.schedule ->
  report
(** Raises [Invalid_argument] with the aggregate validation message on
    a bad market config; never raises on injected faults
    other than {!Injected_crash}.  [journal] durably records the run
    (see {!Journal}); [snapshot_every] (default 4, must be >= 1) sets
    the snapshot cadence.  [segment_bytes] sets the store's rotation
    budget (default unbounded) — the supervisor rotates after any epoch
    whose records pushed the active segment past the budget, writing a
    carry checkpoint of the live state.  [disk]
    substitutes a disk layer (the fault harness's hook); [Storage]
    specs in the schedule damage it at crash time.  [pool] parallelizes
    every epoch's auction and ladder rungs; the supervisor does not own
    the pool's lifecycle (create it with [Poc_util.Pool.with_pool]
    around the whole run, so an {!Injected_crash} unwinds through the
    pool teardown).  Reports and journal bytes are identical at every
    pool size.

    [flight] attaches a black-box flight recorder ({!Black_box}): the
    loop emits phase span opens/closes, fault events, ladder/violation/
    crash incidents into its ring and flushes it at every phase open,
    at each epoch boundary, and on every crash path — so a SIGKILL at
    any instant leaves a readable box naming the in-flight epoch and
    phase.  A box that already holds records (an earlier attempt's)
    first gets a {!Black_box.mark_resume} marker, here and in
    {!resume} once the journal is accepted.  The recorder never
    touches the journal or its disk: journal bytes are identical with
    and without it, and with it absent ([None]) every emission site is
    a single untaken branch (zero allocation). *)

val resume :
  ?honor_crashes:bool ->
  journal:string ->
  ?flight:Black_box.t ->
  ?disk:Disk.t ->
  ?pool:Poc_util.Pool.t ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  schedule:Fault.schedule ->
  (report, string) result
(** Recover a crashed run from its journal store and drive it to
    completion, appending to the same store.  Resumption restores the last durable checkpoint
    (snapshot record or segment carry), truncates everything after it,
    and deletes any orphan segment a crash mid-rotation left behind.
    [Error] with {!refusal_to_string} of {!open_resume}'s refusal: an
    unreadable store, a plain file (an old single-file journal), a
    config/seed/schedule mismatch with the journal's digest, a journal
    that already records a completed run, or an active segment whose
    header is damaged (run {!Journal.scrub} first to quarantine it and
    fall back).  Crash and storage-fault points in [schedule] are
    {e not} re-fired on resume by default, so a resumed run always
    finishes; [~honor_crashes:true] re-arms them, which is how the
    fleet driver chains through a schedule carrying {e several} kill
    points — it resumes with the already-fired specs dropped (the
    journal digest ignores kill specs, so the recompiled schedule
    still matches) and lets the next one fire.  The
    returned report is byte-identical (via {!render_epochs} /
    {!render_incidents}) to an uninterrupted [run] with the same
    inputs. *)

(** {2 Steppable loops}

    The daemon ([Poc_daemon]) keeps a supervised run open across client
    requests instead of driving it end to end: {!open_run} /
    {!open_resume} build the same loop {!run} / {!resume} drive
    internally, {!step} executes exactly one epoch, and {!close} closes
    it.  [run plan ~market ~schedule] is precisely
    [open_run ... |> step-until-done |> close], so every byte-identity
    guarantee above transfers to stepped execution. *)

type loop
(** An open supervised run.  Holds the live market state, the open
    journal (if any), and the reports accumulated so far. *)

type update =
  | Scale_bid of { bp : int; factor : float }
      (** multiply BP [bp]'s cost level (hence its next bids) by
          [factor] — a live re-bid arriving between epochs *)
  | Scale_demand of { factor : float }
      (** multiply the demand level by [factor] — a live traffic-matrix
          update.  Folds into the surge multiplier, so it lands in the
          same snapshot state injected surges do. *)
(** A live market mutation.  Updates are {e not} journaled by the
    supervisor: a resumed run must re-apply the same updates at the
    same epochs (the daemon's intake log records exactly that), and the
    snapshot state (cost levels, surge) then matches bit-for-bit. *)

val validate_update : n_bps:int -> update -> (unit, string) result
(** [Error] on an out-of-range BP or a non-finite/non-positive factor;
    {!step} raises [Invalid_argument] on the same condition. *)

val open_run :
  ?journal:string ->
  ?flight:Black_box.t ->
  ?snapshot_every:int ->
  ?segment_bytes:int ->
  ?disk:Disk.t ->
  ?pool:Poc_util.Pool.t ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  schedule:Fault.schedule ->
  loop
(** Validate the config, create the journal (when requested) and return a
    loop positioned at epoch 1.  Same arguments and failure modes as
    {!run}. *)

type refusal =
  | Completed  (** the journal records a finished run: nothing to resume *)
  | Refused of string  (** unreadable, damaged or mismatched: the reason *)
(** Why a journal did not reopen.  [Completed] comes from the replay's
    completion record, so a caller can close such a run without
    reading the store again. *)

val refusal_to_string : refusal -> string

val open_resume :
  ?honor_crashes:bool ->
  journal:string ->
  ?flight:Black_box.t ->
  ?disk:Disk.t ->
  ?pool:Poc_util.Pool.t ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  schedule:Fault.schedule ->
  (loop, refusal) result
(** Replay and reopen a crashed run's journal (same checks and
    truncation semantics as {!resume}, including [honor_crashes])
    and return a loop positioned at the first epoch after the restored
    checkpoint, with the recovered reports already accumulated. *)

val next_epoch : loop -> int option
(** The epoch the next {!step} will run; [None] when the horizon is
    complete or the loop was closed. *)

val horizon : loop -> int
(** The run's total epoch count ([market.epochs]). *)

val checkpoint : loop -> int
(** The epoch of the newest durable checkpoint — a snapshot or a
    rotation carry — the loop has written, or after {!open_resume}
    restored; 0 before the first (always, without a journal).  A
    resume of the journal restarts at [checkpoint loop + 1]. *)

val progress : loop -> epoch_report list
(** Chronological reports accumulated so far (including any recovered
    prefix). *)

val step : ?updates:update list -> loop -> epoch_report
(** Run one epoch: apply [updates] (in list order, before the epoch's
    scheduled fault events and cost drift), then the full supervised
    epoch — auction or ladder, routing, settlement, invariants, journal
    append/snapshot/rotation.  Raises [Invalid_argument] on a closed or
    complete loop or an invalid update, and {!Injected_crash} exactly
    as {!run} does (the journal is closed first; the loop is dead
    afterwards).  Whatever it raises, every trace span the epoch opened
    is finished first. *)

val close : loop -> report
(** Close the loop and assemble the report so far.  The journal gets
    its completion record only when the horizon is complete; closed
    before it (the daemon's graceful shutdown mid-horizon), the store
    stays resumable.  A loop that an {!Injected_crash} already closed
    keeps its journal as the crash left it.  The flight box gets a
    final flush either way, and the loop is closed afterwards. *)

val epochs_to_recovery : incident -> int option
(** [recovery_epoch - start_epoch]; 0 means absorbed with no outage. *)

val status_to_string : status -> string

val render_incidents : report -> string
(** Deterministic one-line-per-incident log; identical seed + schedule
    produce a byte-identical string. *)

val render_epochs : report -> string
(** Deterministic per-epoch service table. *)
