(** The multi-run daemon core: a supervised run registry multiplexing N
    concurrent market runs over one single-writer loop and one shared
    domain pool.

    Each run owns a full failure domain — its own journal store,
    intake log, flight recorder and [Supervisor] loop over its own
    [Disk.t] — so one run's injected crash or storage fault never
    touches another's bytes.  Run 0 lives at the root itself
    ([root/store], [root/intake.log]), keeping every single-run
    artifact (smoke scripts, [forensics] defaults, old [--resume]
    roots) valid; runs above 0 live under [root/runs/<id>/].

    {2 Run lifecycle}

    [Starting -> Serving -> Failing -> Serving | Quarantined], plus
    [Closed] from any live state:

    - {e Serving}: an open {!Engine} answers scoped requests.
    - {e Failing}: the run raised (on a request, a due retry or a
      startup resume) or refused to reopen.  The registry abandons the
      engine and hands the failure to {!Poc_resilience.Recovery}: it
      arms a deterministic jittered-exponential-backoff retry (the
      {!Poc_resilience.Disk} retry-policy schedule); until it is due,
      scoped requests answer [BUSY run=<id> retry_after=<s>].  A due
      retry ({!tick}) scrubs the store and resumes with the
      not-yet-fired kill specs re-armed.
    - {e Quarantined}: failures exceeded the attempt cap.  The store is
      left intact for [poc-cli forensics], the manifest records the
      quarantine durably (it survives daemon restarts), and scoped
      requests answer the terminal [GONE].
    - {e Closed}: [CLOSE]d by a client, or its horizon completed at
      shutdown — or, on resume, its journal's replay records a
      completed run.

    Every transition is exported on the labeled gauge
    [poc_daemon_run_state{run="<id>",state="<state>"}] (1 marks the
    current state).

    {2 Verbs}

    Each verb is answered in one place.  The registry answers [OPEN],
    [CLOSE], [RUNS], [METRICS] and [SHUTDOWN] itself and quiesces
    every run on [QUIESCE], wherever they are addressed; every other
    request goes to its run's {!Engine}.  [SHUTDOWN] and a signal stop
    the daemon through the same {!stop}.

    {2 Durability}

    The root manifest [root/RUNS] (an append-only checksummed frame
    log) records opens, closes and quarantines.  [create ~resume:true]
    replays it and resumes every non-quarantined open run from its own
    journal + intake log — byte-identically, at any [--jobs] — while
    quarantined runs come back quarantined.  Every directory the
    registry writes is created with its missing parents: the root
    through the disk [RUNS] is written on, a run's directory by
    whatever writes there first — its journal store, through the run's
    [Disk.t], or its flight box, through the box's own disk (see
    {!Poc_resilience.Black_box}). *)

module Disk = Poc_resilience.Disk
module Fault = Poc_resilience.Fault

type run_state =
  | Starting  (** engine open/resume in progress *)
  | Serving
  | Failing of { attempts : int; retry_at_us : float; cause : string }
  | Quarantined of { cause : string }
  | Closed

val state_name : run_state -> string
(** ["starting"], ["serving"], ["failing"], ["quarantined"],
    ["closed"] — the gauge's [state] label values. *)

type action =
  | Continue
  | Stop  (** the daemon stops: close the service and exit 0 *)

type run_info = {
  id : int;
  state : run_state;
  next_epoch : int option;  (** [None] when not serving or horizon done *)
  horizon : int;
  queue : int;
}

type t

val create :
  ?snapshot_every:int ->
  ?segment_bytes:int ->
  ?pool:Poc_util.Pool.t ->
  ?flight:bool ->
  ?high_water:int ->
  ?attempt_cap:int ->
  ?disk_for:(run:int -> Disk.t) ->
  ?resume:bool ->
  ?runs:int ->
  ?max_runs:int ->
  ?fault_run:int ->
  ?fault_specs:Fault.spec list ->
  ?fault_seed:int ->
  root:string ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  unit ->
  (t, string) result
(** Open a registry at [root] with [runs] (default 1) initial runs, all
    under [market]'s epochs/seed, bounded by [max_runs] (default 8).

    [fault_specs] compiles injected crash/storage specs into run
    [fault_run]'s (default 0) schedule only — the fault-isolation
    drill's hook.  [attempt_cap] (default 3) bounds restart attempts
    before quarantine; restarts back off on the
    {!Disk.default_retry_policy} schedule ({!Disk.retry_delays}).
    [disk_for] substitutes the per-run, per-attempt disk (default: a
    fresh {!Engine.retrying_disk} each attempt, so storage-fault damage
    stays with the attempt it hit).

    [resume:true] replays [root/RUNS] and brings back every recorded
    run in its recorded state; an old manifest-less root resumes as
    run 0.  [Error] on an invalid configuration, a [root] that cannot
    be created, a fresh run that cannot open, or a resume root with
    nothing to resume — but a run
    that {e individually} fails startup-resume is marked [Failing]
    (retried under backoff) rather than failing the daemon. *)

val dispatch : t -> Protocol.command -> string list * action
(** Process one command against the registry: run-scoped requests route
    to their engine ([BUSY]/[GONE] while failing/quarantined),
    [OPEN]/[CLOSE]/[RUNS] mutate the registry, and
    [METRICS]/[QUIESCE]/[SHUTDOWN] act daemon-wide wherever addressed.
    The reply always ends with exactly one terminal line.  Any
    exception out of a scoped request is absorbed here — the run
    transitions to [Failing] (or [Quarantined] past the cap) and the
    caller sees a terminal [BUSY]/[GONE] line; the daemon never stops
    for a single run's death.  [Stop] comes only from [SHUTDOWN]. *)

val tick : t -> now_us:float -> unit
(** Drive due retries: every [Failing] run whose backoff expired is
    scrubbed and resumed (kill specs re-armed), escalating to
    [Quarantined] past the attempt cap.  The server calls this each
    select round; tests inject [now_us] to step the backoff clock
    deterministically. *)

val set_flush : t -> (unit -> unit) -> unit
(** Install the observability flush hook (default a no-op).  It runs
    once per [QUIESCE], per {!stop} (and so per [SHUTDOWN]), and per
    [CLOSE] of a run with an open engine. *)

val stop : t -> string
(** Close every open run — a completed horizon is recorded closed,
    every other run stays resumable — flush once and close [RUNS].
    Each run's close is isolated: one that raises is reported on
    stderr and the others still close.  Returns the [BYE] line
    ([BYE complete runs=<n>] or [BYE resumable next=<e> runs=<n>],
    where [<e>] is the earliest epoch a resume restarts an unfinished
    run at: the epoch after its last checkpoint, the [next] a resumed
    [STATUS] reports).
    [SHUTDOWN] answers with it; the server calls it on a signal. *)

val banner : t -> string
val runs : t -> run_info list
val state_of : t -> int -> run_state option
val store_path : t -> int -> string option
