(** Binary encoding for durable on-disk records.

    A tiny, dependency-free codec used by the journal layer: a
    buffer-backed {!writer} / cursor-backed {!reader} pair over
    fixed-width little-endian primitives (floats are stored as their
    IEEE-754 bit patterns, so round-trips are bit-exact, NaNs
    included), plus CRC-32 and a length-prefixed checksummed frame
    format with torn-tail detection.

    Frames on disk are [u32 payload length | u32 CRC-32 of payload |
    payload].  {!next_frame} never raises on damaged input: a frame cut
    short by a crash, or one whose checksum no longer matches, reads as
    {!Torn} and the caller recovers everything before it. *)

type writer

val writer : unit -> writer
val contents : writer -> string

val put_u8 : writer -> int -> unit
(** Lowest 8 bits. *)

val put_u32 : writer -> int -> unit
(** Lowest 32 bits, little-endian. *)

val put_i64 : writer -> int64 -> unit
val put_int : writer -> int -> unit
(** Full OCaml int, as an i64. *)

val put_f64 : writer -> float -> unit
(** IEEE-754 bits; bit-exact round trip, NaN payloads preserved. *)

val put_bool : writer -> bool -> unit
val put_string : writer -> string -> unit
(** u32 length followed by the bytes. *)

val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val put_f64_array : writer -> float array -> unit

exception Corrupt of string
(** Raised by every [get_*] on a short or malformed read. *)

type reader

val reader : string -> reader
val pos : reader -> int
val at_end : reader -> bool

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int64
val get_int : reader -> int
val get_f64 : reader -> float
val get_bool : reader -> bool
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_option : reader -> (reader -> 'a) -> 'a option
val get_f64_array : reader -> float array

val skip : reader -> int -> unit
(** Step over [n] bytes, with the short-read check of a [get_*]. *)

val skip_string : reader -> unit
(** Step over a string as {!get_string} reads it, checking its length
    the same way, without copying it. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3 polynomial) as a non-negative int in
    [\[0, 2^32)]; [crc32 "123456789" = 0xCBF43926]. *)

val frame : string -> string
(** [frame payload] is the on-disk framing of one record:
    length, checksum, payload. *)

type frame_result =
  | Frame of { payload : string; next : int }
  | End   (** clean end of input *)
  | Torn  (** bytes remain but no whole, checksummed frame does *)

val next_frame : ?max_payload:int -> string -> pos:int -> frame_result
(** Scan one frame at [pos].  Returns {!Torn} (never raises) on a
    truncated header, a declared length running past the input, or a
    checksum mismatch.  [max_payload] additionally bounds the declared
    length: a longer frame reads as {!Torn} without waiting for (or
    allocating) its payload — the guard network readers need against a
    garbage length field announcing a multi-gigabyte frame. *)

val resync : string -> pos:int -> int option
(** [resync data ~pos] is the smallest offset at or after [pos] where a
    whole, checksummed, non-empty frame begins, or [None] if no such
    frame exists before the end of input.  Used by the journal scrubber
    to distinguish a torn tail (nothing decodable follows the damage)
    from interior corruption (valid records resume further on).
    Zero-length frames are not resync points: 8 zero bytes checksum as
    a valid empty frame, so zeroed garbage would otherwise read as a
    phantom record. *)

(** {2 Frame logs} *)

type verdict =
  | Clean  (** the walk reached the end of the input *)
  | Torn_tail  (** damage with nothing decodable after it: a crash's tear *)
  | Corrupt_at of int
      (** damage at this offset with whole frames after it: committed
          history was corrupted in place *)

type 'a scan = {
  frames : ('a * int) list;
      (** decoded frames in file order, each with the offset just past it *)
  valid : int;  (** length of the valid prefix: where the walk stopped *)
  verdict : verdict;
}

val scan : from:int -> decode:(string -> 'a) -> string -> 'a scan
(** [scan ~from ~decode data] walks the frames of [data] from offset
    [from] and decodes each payload.  It stops at the first frame that
    is cut short, fails its checksum, or whose [decode] raises
    {!Corrupt}; {!resync} past that point tells a {!Torn_tail} from
    {!Corrupt_at} it.  Never raises {!Corrupt}.  Every persisted frame
    file replays through this one walk; each caller decides what the
    verdict costs. *)

val single : string -> string option
(** The payload of a string that is exactly one whole frame; [None] for
    anything shorter, damaged, or followed by further bytes. *)
