(** Disk-backed persistence for the {!Poc_obs.Flight} recorder.

    [Flight] rings and encodes; this module owns the file.  A box is a
    single file inside the journal store it narrates ({!file_in}) that
    starts as a header-only image and grows by incremental appends:
    every {!flush} drains the ring's pending frames and appends them
    through {!Log}, so the file is durable at every epoch boundary and
    fault point without rewriting.  The supervisor is the one place
    that opens a box ([Supervisor.open_run ~flight:true] and
    [Supervisor.open_resume ~flight:true]): a fresh run {!create}s it
    once its journal has claimed the store directory, and a resumed
    attempt, once its journal is accepted, {!reopen}s it, continuing
    the file the earlier attempts left.
    When the file outgrows its 256 KiB budget (or the ring wrapped past
    an undrained backlog) the box compacts: the current ring image is
    rewritten atomically via [Disk.write_file_atomic], bounding the
    file at roughly the budget however long the run.

    The box deliberately takes its {e own} {!Disk.t} (defaulting to a
    fresh one over the real filesystem): sharing the journal's disk
    would let flight appends perturb the power-cut fault-tracking
    metadata (which file was last appended, which rename is pending)
    and move where injected damage lands — violating the invariant that
    journal bytes are identical with the recorder on and off.

    A SIGKILL can cut an append short; {!load} tolerates the torn tail
    (everything before it survives) and {!scrub} truncates the file to
    its valid prefix, after which it re-reads byte-identically. *)

type t

val file_in : string -> string
(** Where the box of the journal store [dir] lives: [dir/FLIGHT]. *)

val create : ?capacity:int -> ?disk:Disk.t -> string -> t
(** Start a fresh box at [path]: atomically write a header-only image,
    then append on every flush.  Whatever was at [path] is replaced: a
    fresh run claims its store.  [path]'s directory must exist.
    [capacity] is the ring's record count (default 1024).  [disk]
    defaults to a fresh [Disk.real ()]. *)

val reopen : ?capacity:int -> ?disk:Disk.t -> string -> t
(** Open the box of a resumed attempt (a [--resume], a registry retry,
    a fleet resume): the newest [capacity] of the records {!load} reads
    from [path], the ones a {!scrub} would keep, open the ring
    unchanged ({!Poc_obs.Flight.reopen}), so the crash an earlier
    attempt recorded survives.  The file is cut to that valid prefix
    and appended to; it is rewritten only when its header stamps
    another capacity.  A missing, unreadable or header-damaged file
    starts header-only, as {!create}.  Parameters as {!create}. *)

val mark_resume : t -> unit
(** Record that a new attempt of the run starts here: emit a marker
    (an [Event] named ["resume"], epoch [-1], no phase, detail
    [records=N], the records the ring held before it) and flush it at
    once.  The supervisor calls it when a resume that it has accepted
    reopens a box already holding records. *)

val is_resume : Poc_obs.Flight.record -> bool
(** Whether a record is {!mark_resume}'s marker: the records after the
    newest one are the newest attempt's. *)

val ring : t -> Poc_obs.Flight.t
(** The ring to emit into. *)

val flush : t -> unit
(** Drain the ring and persist: append + sync the new frames, or
    compact to a fresh image when over budget or wrapped.  A no-op when
    nothing was emitted since the last flush. *)

val file_bytes : t -> int
(** Current on-disk size the box believes it has (post-flush). *)

val close : t -> unit
(** Final {!flush}.  The box holds no open handles between flushes, so
    there is nothing else to release. *)

val load :
  ?disk:Disk.t -> string -> (Poc_obs.Flight.image_data, string) result
(** Read and decode a box file, tolerating a torn tail.  [Error] on a
    missing file or a damaged header. *)

type scrub_result = {
  fb_bytes_kept : int;
  fb_bytes_dropped : int;  (** 0 when the file was already clean *)
  fb_records : int;  (** record frames in the kept prefix *)
}

val scrub : ?disk:Disk.t -> string -> (scrub_result, string) result
(** Truncate [path] to its longest valid image prefix (header plus
    whole record frames).  Idempotent: a second scrub keeps every byte.
    [Error] on a missing file or a header too damaged to identify the
    file as a flight image (nothing is modified then). *)
