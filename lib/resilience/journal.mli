(** Durable run journal for the supervised epoch loop: a self-healing
    store directory of segments.

    The settlement ledger and incident history are the non-regulatory
    accountability a public option offers; a process crash mid-month
    must not erase them.  A journal is a {e directory} of [NNNNN.seg]
    files plus a checksummed [MANIFEST] (the live segment ids,
    rewritten atomically via rename).  Each segment is a {!Log}:
    records are length-prefixed and CRC-32-checksummed (framing in
    [Poc_util.Codec]), appended and flushed after every epoch:

    - one segment header identifying the run (format version, segment
      id and byte budget, market seed and horizon, a digest of market
      config, ladder and the compiled fault schedule, snapshot cadence)
      and, from the second segment on, a {!carry};
    - one {!epoch_record} per completed epoch — the epoch report with
      every float stored bit-exact, the fault events applied, the
      selected link ids, and any invariant violations;
    - a full {!snapshot} of the carry-forward state every
      [snapshot_every] epochs — PRNG cursor, per-BP cost levels, injected
      link state, surge and demand scale, last healthy selection — from
      which the loop can resume without replaying the whole run;
    - a completion record once the run finishes, carrying the rendered
      incident log.

    {2 Rotation}

    [create ~segment_bytes] sets the byte budget; without it the budget
    is unbounded and the whole run lives in segment 00001.  When the
    active segment exceeds the budget the supervisor {!rotate}s: the
    next segment opens with a {!carry} — a full snapshot plus the epoch
    reports and violations accumulated so far — so {e every segment is
    self-describing}: replay needs only the newest intact segment.
    Rotation garbage-collects segments strictly older than the newest
    durable checkpoint outside the active segment (the predecessor's
    opening carry): the store holds at most the active segment and its
    predecessor, the predecessor being the fall-back when scrub must
    quarantine the active one.  Disk usage is bounded by roughly twice
    the budget plus one carry, however long the run.

    {2 Damage and repair}

    {!replay} validates checksums record by record and stops at the
    first torn or corrupted frame: everything before it is recovered,
    everything after it is discarded (and truncated away when the
    journal is {!reopen}ed for resumption) — truncation is anchored at
    the last durable checkpoint (the last snapshot record, or the
    segment's opening carry).  A torn tail is exactly what a crash
    mid-write leaves behind, so recovery never trusts the final record
    more than its checksum.

    Real disks also flip bits in the {e middle} of committed records.
    {!scrub} walks every segment and classifies each one: [Clean], a
    [Torn_tail] (nothing decodable after the damage — truncated), a
    [Corrupt_interior] (valid frames resume after the damage, i.e.
    silent corruption of committed history — truncated at the first bad
    byte, so resume falls back to the last checkpoint before it), or
    [Unreadable] (the segment's own header/carry is gone — the segment
    is quarantined into [quarantine/] and the store falls back to the
    predecessor's checkpoint).  All file I/O flows through {!Disk}, so
    the fault harness can inject the damage scrub repairs.

    A plain file at the journal path is refused by {!replay} and
    {!scrub}: single-file journals written by older builds are not
    read. *)

type status =
  | Healthy
  | Degraded of Ladder.step
  | Carried
  | Blackout

type epoch_report = {
  epoch : int;
  status : status;
  spend : float;
  price_per_gbps : float;
  delivered_fraction : float;
  selected_links : int;
  recalled_links : int;
  active_faults : int;
  ladder_attempts : int;
  ledger_conservation : float option;
  posted_price : float option;
}

type violation = { epoch : int; invariant : string; detail : string }

type epoch_record = {
  report : epoch_report;
  events : Fault.event list;  (** fault events applied this epoch *)
  selected : int list;        (** link ids of the epoch's selection *)
  violations : violation list;
}

type snapshot = {
  at_epoch : int;          (** state as of the {e end} of this epoch *)
  prng_state : int64;      (** market PRNG cursor *)
  cost_level : float array;
  down : int list;         (** injected link-down state (heals on repair) *)
  gone : int list;         (** permanently withdrawn links *)
  surge : float;
  demand_scale : float;
      (** cumulative demand growth since epoch 0 (recorded for
          inspection; resume re-derives the matrix by repeating the
          per-epoch scalings so the floats match bit-for-bit) *)
  last_good : (int list * float) option;
      (** last fully-healthy selection (ids, cost) for carry-forward *)
}

type header = {
  version : int;
  market_seed : int;
  market_epochs : int;
  n_bps : int;
  snapshot_every : int;
  digest : int64;  (** {!digest} of market config + ladder + schedule *)
}

type carry = {
  at : snapshot;  (** checkpoint the new segment opens from *)
  carry_reports : epoch_report list;
      (** every epoch report up to and including [at.at_epoch],
          chronological — what a replay of the GC'd history would have
          returned *)
  carry_violations : violation list;
}
(** The carry-forward a rotation writes into the new segment's header,
    making the segment self-describing: resume needs nothing older. *)

val version : int
(** Current journal format version. *)

val digest : market:Poc_market.Epochs.config -> Fault.schedule -> int64
(** Checksum binding a journal to the run that wrote it; resuming under
    a different market config, ladder or fault schedule is refused with
    a clear error instead of silently diverging.  Crash and
    storage-fault points are excluded from the digest, so the schedule
    that crashed a run and the same schedule without its
    [Crash]/[Storage] specs digest identically. *)

type t
(** An open journal being written.  Every append flushes. *)

val create : ?disk:Disk.t -> ?segment_bytes:int -> string -> header -> t
(** Create the store directory at [path] (one level) and start a fresh
    run in it: any previous segments are cleared, segment 00001 is
    opened with the run header and no carry, and the [MANIFEST] is
    written.  [segment_bytes] is the rotation budget (>= 1); without it
    the store never rotates. *)

val append_epoch : t -> epoch_record -> unit
val append_snapshot : t -> snapshot -> unit
val append_complete : t -> incidents:string -> unit
val append_torn : t -> epoch:int -> unit
(** Write a deliberately incomplete frame — what a crash between the
    auction and settlement leaves on disk.  Used by crash injection;
    {!replay} discards it. *)

val wants_rotation : t -> bool
(** True when the active segment has grown past its byte budget;
    always false under an unbounded budget. *)

val rotate : t -> carry -> unit
(** Open segment [N+1] with [carry] in its header, sync it, switch the
    manifest to [{N; N+1}] (atomic rename), then delete segments older
    than [N].  The caller (the supervisor) supplies the carry because
    only it can snapshot the live market state. *)

val close : t -> unit

type replayed = {
  header : header;
  records : epoch_record list;  (** the active segment's valid epoch
                                    records, chronological (older
                                    history lives in [prefix_reports]) *)
  snapshot : snapshot option;   (** last durable checkpoint: the last
                                    snapshot record, else the segment's
                                    opening carry *)
  complete : string option;     (** rendered incident log, if finished *)
  torn_tail : bool;             (** a torn/corrupt suffix was discarded *)
  valid_bytes : int;            (** length of the valid prefix *)
  resume_offset : int;          (** truncation point for {!reopen}: end of
                                    the last checkpoint *)
  prefix_reports : epoch_report list;
      (** epoch reports recovered from the carry ([[]] in segment 1) *)
  prefix_violations : violation list;
  segment_bytes : int;          (** rotation budget; [max_int] when
                                    unbounded *)
  active_segment : int;         (** id of the segment replayed *)
  live_segments : int list;     (** manifest contents, ascending *)
}

val reopen : ?disk:Disk.t -> string -> replayed -> t
(** Reopen a replayed store for appending at [resume_offset] — the end
    of the last durable checkpoint — first truncating the active
    segment there when the replay found bytes past it.  This also
    deletes orphan segments newer than the manifest's active one (a
    crash mid-rotation leaves exactly that: the new segment created,
    the manifest rename lost) and rewrites the manifest, so the on-disk
    state a resumed run grows from is byte-identical to the
    uninterrupted run's at the same epoch.  Raises [Sys_error] on an
    unreadable path. *)

val replay : ?disk:Disk.t -> string -> (replayed, string) result
(** Read and validate a journal store.  Only the newest intact segment
    is read (its carry stands in for the GC'd history); if the manifest
    itself is unreadable the directory is scanned for segments instead.
    [Error] on a missing path or a plain file (an old single-file
    journal), a store that is not a POC journal, a version mismatch, or
    an active segment whose header/carry is damaged (run {!scrub} to
    quarantine it and fall back); torn or corrupted tails are
    truncated, never fatal. *)

(** {2 Scrub} *)

type scrub_verdict =
  | Scrub_clean
  | Scrub_torn_tail         (** damage at the tail, nothing decodable after *)
  | Scrub_corrupt_interior  (** valid frames resume after the damage *)
  | Scrub_unreadable        (** header/carry damaged; segment unusable *)

type scrub_action = Scrub_none | Scrub_truncated | Scrub_quarantined

type segment_scrub = {
  seg_id : int;
  seg_path : string;
  records_ok : int;   (** checksum-valid, parseable records *)
  verdict : scrub_verdict;
  action : scrub_action;
  bytes_kept : int;
  bytes_dropped : int;
}

type scrub_report = {
  store : string;
  applied : bool;     (** false when [dry_run] *)
  recovered : bool;   (** a resumable store remains after the scrub *)
  segments : segment_scrub list;  (** ascending id *)
}

val scrub : ?disk:Disk.t -> ?dry_run:bool -> string -> (scrub_report, string) result
(** Walk every live segment, classify each record,
    and repair what can be repaired: torn tails and interior corruption
    are truncated at the first bad byte (resume then falls back to the
    last checkpoint at or before it), segments whose header/carry is
    unreadable are moved to [quarantine/] and dropped from the
    manifest, falling back to the predecessor's checkpoint.  With
    [dry_run] nothing is modified; the report carries the actions that
    {e would} be taken.  Progress is counted in [Poc_obs.Metrics]
    ([poc_scrub_*]).  [Error] only when [path] is no journal store at
    all. *)

val scrub_to_json : scrub_report -> string
(** Machine-readable report (one JSON object, trailing newline):
    [{"store":..,"mode":"segmented","applied":..,"recovered":..,
    "segments":[{"segment":..,"path":..,"records_ok":..,"verdict":..,
    "action":..,"bytes_kept":..,"bytes_dropped":..}],"quarantined":[..],
    "quarantined_count":..}].  ["store"] is the store root as given and
    ["quarantined_count"] the number of quarantined segments, so
    fleet-level tooling can aggregate scrub outcomes without re-parsing
    paths or the segment array. *)

val verdict_to_string : scrub_verdict -> string
(** ["clean"], ["torn_tail"], ["corrupt_interior"], ["unreadable"]. *)

val action_to_string : scrub_action -> string
(** ["none"], ["truncated"], ["quarantined"]. *)
