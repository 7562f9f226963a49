(** The daemon's durable intake log: the exactly-once half of live
    updates.

    The supervisor deliberately does not journal live updates
    ({!Poc_resilience.Supervisor.update}) — a resumed run must re-apply
    the same updates at the same epochs to reproduce the same bytes.
    The intake log records exactly that: one checksummed
    {!Poc_util.Codec} frame per admitted update, flushed to the OS
    {e before} the client sees [OK] (so it survives a process kill, not
    a power cut), carrying the entry, its apply-epoch and the seq of
    any entry it displaced (shed) on the way in.  Displacement rides in
    the same frame as the admission that caused it, so the two are
    atomic on disk — a torn tail can never shed a victim while losing
    its displacer.

    The file is a {!Poc_resilience.Log}.  On restart, {!reopen} replays
    it (truncating a torn tail: its bytes are an [OK] that never reached
    a client; refusing interior damage, since the records after it were
    acknowledged) and the engine re-applies every surviving, unshed
    entry at its recorded epoch — which, against the journal's restored
    checkpoint, reproduces the uninterrupted run byte for byte.

    A failed append self-heals and retries: {!Poc_resilience.Log.append}
    truncates the file back to the last durable record and reopens it,
    then the append is retried under the same deterministic
    jittered-backoff schedule
    {!Poc_resilience.Disk.retrying} uses ([retry], default
    {!Poc_resilience.Disk.default_retry_policy}) — so a transient fault
    on the flush-before-OK path costs latency, not the admission.  Only
    a persistently failing disk exhausts the schedule and raises, and
    even then no torn frame is left mid-log. *)

module Disk = Poc_resilience.Disk
module Supervisor = Poc_resilience.Supervisor

type record = {
  entry : Supervisor.update Admission.entry;
  displaces : int option;  (** seq shed to make room for this entry *)
}

type t

val create :
  ?disk:Disk.t ->
  ?retry:Disk.retry_policy ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay:float -> string -> unit) ->
  string ->
  t
(** Fresh log at the path, truncating any previous contents.
    [on_retry] fires before each append-retry sleep (the daemon counts
    these in [poc_daemon_disk_retries_total]); [sleep] defaults to
    [Unix.sleepf] and is substitutable for tests.  Raises
    [Invalid_argument] on a malformed [retry] policy. *)

val reopen :
  ?disk:Disk.t ->
  ?retry:Disk.retry_policy ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay:float -> string -> unit) ->
  string ->
  (t * record list, string) result
(** Replay the surviving records (chronological), truncate any torn
    tail, and open for append.  A missing file reopens as an empty log.
    [Error], with the file untouched, on interior damage (a corrupt
    record with whole records after it: the error names the file and
    the byte offset) and on an undecodable (checksum-valid but
    malformed) record — version skew, not damage. *)

val read : ?disk:Disk.t -> string -> (record list * bool, string) result
(** Read-only replay for forensics: the surviving records
    (chronological) and whether a torn/undecodable tail was skipped.
    Unlike {!reopen} the file is not modified and nothing is opened for
    append.  [Error] only when the file cannot be read at all. *)

val append : t -> record -> unit
(** Append one frame and flush, retrying transient failures under the
    log's retry policy.  Raises [Sys_error] only when the disk refuses
    persistently (the whole backoff schedule exhausted), after
    restoring the file to its last durable length. *)

val close : t -> unit
val path : t -> string
