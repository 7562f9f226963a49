(** Pluggable disk layer between every durable log and the operating
    system.

    Every byte the journal, the intake log, the flight box, the fleet
    files and the daemon's [RUNS] list persist — appends (through
    {!Log}), atomic rewrites, truncations — flows through a {!t}, so
    tests can substitute a different backend ({!with_ops}) and the
    fault harness can model what a real disk does when power is lost at
    the worst moment.

    The fault model is {e power-cut-time damage}: during normal
    operation the disk behaves exactly like the real one while
    recording a little metadata (the size of the last segment append,
    the previous contents of the last atomically-renamed file, which
    file is actively being appended to).  {!power_cut} then applies one
    deterministic {!fault} to the on-disk state — the damage a short
    write, a torn rename, a lying fsync or silent media corruption
    would leave behind — and the supervisor raises its injected-crash
    exception immediately after, so the next observer of the files is
    the resume/scrub path, just as after a real power loss.

    Determinism: no fault draws from ambient randomness.
    [Corrupt_byte] derives its offset and XOR mask from its own seed
    via [Poc_util.Prng], so a given (journal bytes, fault) pair always
    produces the same damaged bytes. *)

type fault =
  | Short_write of { drop : int }
      (** the final segment append only partially reached the platter:
          the last [min drop size-of-last-append] bytes are lost *)
  | Torn_rename
      (** the most recent atomic rename (the manifest update of a
          segment rotation) was not yet durable: the destination
          reverts to its previous contents.  A no-op when a later
          append already made the rename durable. *)
  | Lying_fsync of { drop : int }
      (** fsync acknowledged bytes that were never persisted: the last
          [drop] bytes of the actively-appended file vanish, record
          boundaries notwithstanding *)
  | Corrupt_byte of { seed : int }
      (** silent media corruption: one byte of the actively-appended
          file, at a [seed]-derived offset, is XORed with a non-zero
          [seed]-derived mask *)

val fault_to_string : fault -> string
(** ["short_write:12"], ["torn_rename"], ["lying_fsync:64"],
    ["corrupt_byte:7"]. *)

val fault_of_string : string -> (fault, string) result
(** Inverse of {!fault_to_string}; the integer argument is optional
    ([short_write] defaults to 6 bytes, [lying_fsync] to 64,
    [corrupt_byte] to seed 1). *)

type ops = {
  open_append : string -> out_channel;  (** create/append, binary *)
  open_trunc : string -> out_channel;   (** create/truncate, binary *)
  read_file : string -> string;         (** whole file; raises [Sys_error] *)
  rename : string -> string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;               (** raises if the directory exists *)
  readdir : string -> string array;
  exists : string -> bool;
  is_directory : string -> bool;  (** false for a missing path *)
}
(** The primitive operations the journal needs from a filesystem. *)

val real_ops : ops
(** [Sys] / [In_channel] / [Out_channel] passthrough. *)

type retry_policy = {
  retry_attempts : int;      (** extra tries after the first failure (>= 0) *)
  retry_base_delay : float;  (** seconds before the first retry (>= 0) *)
  retry_multiplier : float;  (** exponential growth per retry (>= 1) *)
  retry_max_delay : float;   (** backoff cap, pre-jitter *)
  retry_jitter : float;      (** uniform multiplicative jitter in [0,1]:
                                 each delay is scaled by 1 + jitter·u *)
  retry_seed : int;          (** PRNG seed for the jitter draws *)
}
(** Jittered exponential backoff for transient I/O errors. *)

val default_retry_policy : retry_policy
(** 4 retries, 5 ms base doubling to a 250 ms cap, 25% jitter. *)

val retry_delays : retry_policy -> float list
(** The policy's concrete jittered-backoff schedule: one delay per
    retry attempt, drawn deterministically from [retry_seed].  This is
    exactly the sequence {!retrying} sleeps through; it is exported so
    other layers needing the same discipline — the intake log's append
    retry, the run registry's restart backoff — share one schedule
    shape instead of reinventing it.  Raises [Invalid_argument] on a
    malformed policy. *)

val retrying :
  ?policy:retry_policy ->
  ?sleep:(float -> unit) ->
  ?on_retry:(op:string -> attempt:int -> delay:float -> string -> unit) ->
  ops ->
  ops
(** Wrap a backend so every operation that raises [Sys_error] is
    retried under [policy] with jittered exponential backoff before the
    error propagates.  The delay schedule is drawn once from
    [retry_seed] — deterministic — shared across operations and reset
    on any success, so a persistently failing disk exhausts the budget
    and re-raises while a transiently failing one recovers.  [on_retry]
    fires before each sleep (the daemon counts these in
    [poc_daemon_disk_retries_total]); [sleep] defaults to
    [Unix.sleepf] and is substitutable for tests.  [exists] and
    [is_directory] are passed through unretried (they return rather
    than raise on missing paths).  Raises [Invalid_argument] on a
    malformed policy. *)

type t
(** A disk: an {!ops} backend plus the fault-tracking metadata
    {!power_cut} consumes. *)

val real : unit -> t
(** A fresh disk over {!real_ops}. *)

val with_ops : ops -> t
(** A fresh disk over a custom backend. *)

type file
(** An open append handle. *)

val open_append : t -> string -> file
val open_trunc : t -> string -> file

val append : t -> file -> string -> unit
(** Buffered append; records this as the disk's last append and marks
    any pending rename durable (a later write implies the journal has
    moved past the rename). *)

val sync : t -> file -> unit
(** Flush the handle's buffer. *)

val close_file : t -> file -> unit
val file_path : file -> string

val read_file : t -> string -> string
(** Raises [Sys_error] on a missing/unreadable path. *)

val write_file_atomic : t -> string -> string -> unit
(** Write [path ^ ".tmp"], then rename it over [path].  Records the
    rename (and the destination's previous contents) so {!power_cut}
    can tear it. *)

val truncate_file : t -> string -> int -> unit
(** Truncate a {e closed} file to its first [n] bytes. *)

val remove : t -> string -> unit
(** Ignores a missing path. *)

val mkdir_p : t -> string -> unit
(** Create a directory and any missing parents, one [ops.mkdir] per
    level; ignores an existing directory.  Raises
    [Sys_error "<level>: Not a directory"] when a level exists but is
    not a directory (a regular file, say), and [Sys_error] when a level
    cannot be made. *)

val readdir : t -> string -> string array
val exists : t -> string -> bool
val is_directory : t -> string -> bool
val rename : t -> string -> string -> unit

val power_cut : t -> fault -> unit
(** Apply one fault's damage to the on-disk state.  Call with every
    journal handle closed; the caller is expected to abandon the run
    immediately after (the supervisor raises [Injected_crash]). *)
