(** Binary encoding for the system's durable files and wire frames.

    Every record the system writes and later trusts is declared once,
    as a {!t}: a format value from which the codec derives the writer
    ({!encode}), the reader ({!decode}) and a {!skip} that checks the
    same bytes the reader checks and builds nothing.  Formats are built
    from fixed-width little-endian primitives (floats are stored as
    their IEEE-754 bit patterns, so round-trips are bit-exact, NaNs
    included), {!list} and {!option}, records whose fields are listed
    one per line in wire order ({!record}, {!(|+)}, {!seal}), and
    tagged unions ({!union}, {!tagged}).  Eight formats use it, each
    declared in its own module: journal segments, [MANIFEST] and the
    journal digest's input ([Poc_resilience.Journal]), [intake.log]
    ([Poc_daemon.Intake]), [RUNS] ([Poc_daemon.Registry]), the daemon's
    wire frames ([Poc_daemon.Framing]), [FLIGHT] ([Poc_obs.Flight]),
    and the fleet's [RESULT] and [FLEET] ([Poc_fleet.Driver]).

    Around the formats sit CRC-32 and a length-prefixed checksummed
    frame format with torn-tail detection.  Frames on disk are
    [u32 payload length | u32 CRC-32 of payload | payload].
    {!next_frame} never raises on damaged input: a frame cut short by a
    crash, or one whose checksum no longer matches, reads as {!Torn}
    and the caller recovers everything before it.

    The [put_*]/[get_*] primitives below remain for code that must
    write bytes no format declares, such as a deliberately cut frame. *)

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

(** {2 Formats} *)

type 'a t
(** The layout of one value on the wire. *)

exception Refused of string
(** Raised by a {!const} given [refuse] when the bytes hold another
    value: a well-formed record of the wrong kind or version, which the
    caller reports with the message rather than as damage. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a
(** Raises {!Corrupt} on a short or malformed payload.  Bytes after the
    value are ignored unless the format is {!exact}. *)

val skip : 'a t -> string -> unit
(** Check [payload] as {!decode} does, raising exactly where it raises,
    without building the value. *)

val u8 : int t
val u32 : int t
val i64 : int64 t
val int : int t
val f64 : float t
val bool : bool t
val string : string t
val f64_array : float array t
val list : 'a t -> 'a list t
val option : 'a t -> 'a option t

val const : ?refuse:('a -> string) -> 'a t -> 'a -> unit t
(** Writes the constant; reading any other value raises
    [Refused (refuse v)], or {!Corrupt} without [refuse]. *)

val exact : 'a t -> 'a t
(** The value fills its payload: trailing bytes read as {!Corrupt}. *)

type ('w, 'r) fields
(** A record format under construction: it writes a ['w] and reads
    its constructor ['r], still waiting for the fields not yet added. *)

val record : 'r -> ('w, 'r) fields
(** [record make] starts a record whose fields, added in wire order
    with {!(|+)}, are the arguments of [make] in order. *)

val field : 'a t -> ('w -> 'a) -> 'a t * ('w -> 'a)

val ( |+ ) : ('w, 'a -> 'r) fields -> 'a t * ('w -> 'a) -> ('w, 'r) fields
(** Append a field: its format and its getter. *)

val ( |- ) : ('w, 'r) fields -> unit t -> ('w, 'r) fields
(** Append bytes that are not a field, such as a {!const}. *)

val seal : ('w, 'w) fields -> 'w t

val t2 : 'a t -> 'b t -> ('a * 'b) t
val t3 : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val t4 : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t
val t5 : 'a t -> 'b t -> 'c t -> 'd t -> 'e t -> ('a * 'b * 'c * 'd * 'e) t

type 'a case
(** One arm of a tagged union. *)

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag body inject project]: values [project] accepts are
    written as the u8 [tag] and their body. *)

val const_case : int -> 'a -> 'a case
(** A case with no body, for the one value equal to the given one. *)

val union : unknown:string -> 'a case list -> 'a t
(** The u8 tag of the first case that accepts the value, then its body.
    An unlisted tag reads as [Corrupt (unknown ^ " " ^ tag)]. *)

val tagged :
  unknown:string -> ('a, 'k -> 'a) fields -> ('a -> 'k) -> 'k case list -> 'a t
(** [tagged ~unknown head kind cases]: a {!union} over [kind v] whose
    tag comes first, then the [head] fields every case shares, then the
    case's body.  [head]'s constructor takes the decoded kind last. *)

(** {2 Frames} *)

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
