(** The daemon's wire format, the only one its socket speaks:
    run-id-addressed, length-prefixed, checksummed.

    Each message on the wire is one byte of {!magic} ([0xB1] — outside
    ASCII, so a client writing text is told apart at its first byte)
    followed by a {!Poc_util.Codec} frame
    ([u32 length | u32 CRC-32 | payload]).  The
    payload is a tag byte plus the message fields; floats travel as
    IEEE-754 bits, so a bid factor round-trips bit-exactly — no
    [%.17g] printing on the hot path.

    Damage tolerance is per-frame, not per-connection: a frame whose
    checksum fails, whose length field exceeds {!max_payload}, or whose
    payload is undecodable is {e dropped} and {!decode_stream} resyncs
    at the next magic byte.  One garbled frame costs that frame (the
    client notices the missing reply and retries by seq); it never
    kills the connection.  A frame merely still in flight — header or
    payload not yet fully read — is left unconsumed for the next read.

    A reply is one frame per {!Protocol} response line: zero or more
    [final = false] frames (continuation lines, their text still
    prefixed ["| "]) then exactly one [final = true] frame, each
    carrying the run id it answers for. *)

module Codec = Poc_util.Codec

val magic : char
(** First byte of every frame, [0xB1]. *)

val max_payload : int
(** Upper bound (1 MiB) a decoder accepts for a declared payload
    length; anything larger reads as corruption, not an allocation. *)

type msg =
  | Open of { run : int option; epochs : int option; seed : int option }
  | Bid of { run : int; seq : int; bp : int; factor : float; priority : int }
  | Matrix of { run : int; seq : int; factor : float; priority : int }
  | Epoch of { run : int; count : int }
  | Status of { run : int }
  | Scrub of { run : int }
  | Close of { run : int }
  | Runs
  | Metrics
  | Quiesce
  | Shutdown
      (** Client-to-daemon messages; the run-scoped ones carry their
          target run id inline (a command line's [RUN <id>]
          prefix). *)

type reply = { run : int; final : bool; line : string }
(** Daemon-to-client: one response line, tagged with the run it
    concerns.  [final = false] frames are continuation lines. *)

type item = Msg of msg | Reply of reply

val to_command : msg -> Protocol.command
(** The registry-facing command a message denotes.  [Metrics], [Quiesce]
    and [Shutdown] map to run-0 scoped requests (the registry treats
    them daemon-wide wherever addressed). *)

val of_command : Protocol.command -> msg
(** Inverse of {!to_command} on run-scoped commands;
    [to_command (of_command c) = c]. *)

val encode_msg : msg -> string
val encode_reply : reply -> string

type progress = {
  items : item list;  (** decoded messages/replies, in wire order *)
  consumed : int;
      (** offset of the first unconsumed byte — resume the next decode
          here once more bytes arrive *)
  dropped : int;  (** corrupt frames / garbage runs skipped past *)
}

val decode_stream : string -> pos:int -> progress
(** Decode every complete frame starting at [pos].  Corrupt frames and
    inter-frame garbage are skipped (counted in [dropped]) with resync
    at the next {!magic} byte; an incomplete trailing frame is left
    unconsumed.  Never raises. *)
