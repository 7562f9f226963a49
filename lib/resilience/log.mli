(** One durable record log over {!Disk}: the append path and the replay
    every persisted frame file shares — journal segments, the intake
    log, the flight box and the daemon's [RUNS] list.

    A log is a file of [Poc_util.Codec] frames
    ([u32 length | u32 CRC-32 | payload]).  Appends go through {!Disk},
    so the power-cut fault tracker sees every one; replay walks the
    frames once with [Codec.scan] and modifies nothing.  What a damaged
    log costs is the caller's policy, written as one match on the
    scan's verdict: truncate at the last checkpoint, truncate at the
    damage, keep the valid prefix, or refuse. *)

type t
(** An open log: an append handle and the length known durable. *)

val create : Disk.t -> string -> t
(** Create or truncate the file and open it for append. *)

val replay :
  Disk.t -> string -> decode:(string -> 'a) -> 'a Poc_util.Codec.scan
(** Read the whole file and [Codec.scan] it from offset 0.  Nothing is
    modified.  Raises [Sys_error] on a missing or unreadable file. *)

val reopen : Disk.t -> string -> at:int -> truncate:bool -> t
(** Open the file for append after its first [at] bytes.  With
    [truncate] (the replay found bytes past [at]) the file is cut to
    [at] first; without it nothing is read, so resuming a clean log
    costs one open (and a missing file is created). *)

val append : t -> string -> unit
(** Append and sync.  On [Sys_error] the handle is closed, the file
    truncated back to the last durable length and reopened, and the
    error re-raised: a failed append never leaves a torn frame
    mid-log while the process lives. *)

val size : t -> int
(** Bytes known durable: the opening length plus every successful
    append. *)

val close : t -> unit
(** Close the handle, ignoring [Sys_error]. *)

val read_single : Disk.t -> string -> string option
(** The payload of a file that is exactly one whole frame; [None] when
    the file is missing, unreadable, damaged or longer. *)
