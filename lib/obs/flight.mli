(** Black-box flight recorder: a bounded, pre-allocated binary ring of
    the most recent telemetry records.

    Aircraft keep the last minutes of instrument readings in a crash
    box; this module keeps the last [capacity] observability records —
    phase span opens/closes, point events, fault/ladder/violation/crash
    incidents, metric deltas — each encoded up front as one
    [Poc_util.Codec] CRC-framed binary record.  Because every record is
    framed the instant it is emitted, the ring's contents can be
    appended to disk incrementally (at epoch boundaries and on every
    fault path) and the on-disk image stays readable after any crash:
    a torn tail loses at most the frames after the damage, never the
    history before it.

    The recorder is instance-based, not global: the fleet runs many
    scenarios concurrently on pool workers, each with its own box, so
    there is deliberately no process-wide install.  A disabled recorder
    is simply [None] at the owner — the caller's [match] is one branch
    and allocates nothing, preserving the project's zero-allocation
    disabled-path invariant.

    Persistence itself lives one layer up ([Poc_resilience.Black_box]):
    this module only encodes, rings, drains, and decodes — it depends
    on nothing but the codec and the clock, so [lib/obs] stays at the
    bottom of the dependency DAG. *)

type kind =
  | Span_open of { name : string }
      (** a phase/request began; [name] is the span name *)
  | Span_close of { name : string; dur_us : float }
  | Event of { name : string; detail : string }
  | Incident of { incident : string; detail : string }
      (** fault / ladder / violation / crash — the records forensics
          leads with *)
  | Metric of { name : string; delta : float }

type record = {
  seq : int;  (** 0-based emission index, monotonic across wraps *)
  ts_us : float;  (** {!Clock.now_us} at emission *)
  epoch : int;  (** market epoch in flight, [-1] outside any epoch *)
  phase : string;  (** supervisor phase / daemon verb, [""] when none *)
  kind : kind;
}

type t
(** A recorder: pre-allocated slot array of framed records plus the
    pending bytes not yet drained to disk.  All operations are
    mutex-guarded and domain-safe. *)

val create : ?capacity:int -> unit -> t
(** Default capacity 1024 records.  Raises [Invalid_argument] when
    [capacity < 1]. *)

val capacity : t -> int

val emit : t -> ?ts_us:float -> epoch:int -> phase:string -> kind -> unit
(** Append one record, evicting the oldest once full.  [ts_us]
    defaults to {!Clock.now_us}[ ()]; tests pass it explicitly for
    reproducible images. *)

val seq : t -> int
(** Total records ever emitted (the next record's [seq]). *)

val stored : t -> int
(** Records currently retained ([min seq capacity] for a recorder
    from {!create}). *)

val dropped : t -> int
(** Records emitted but no longer retained ([seq - stored]). *)

val records : t -> record list
(** Retained records, oldest first — exactly the most recent
    {!stored} emissions in emission order. *)

val drain : t -> [ `Empty | `Append of string | `Wrapped ]
(** Hand the owner what changed since the last drain.  [`Empty]:
    nothing new.  [`Append bytes]: the framed records emitted since the
    last drain, ready to append to an existing image file.  [`Wrapped]:
    more than [capacity] records were emitted since the last drain, so
    an incremental append would write frames the ring has already
    evicted — the owner should rewrite {!image} instead.  Either way
    the pending buffer is reset. *)

val pending_bytes : t -> int
(** Bytes an [`Append] drain would currently return (0 after a wrap). *)

val image : t -> string
(** Full on-disk image: one header frame (magic, format version,
    capacity) followed by the retained record frames oldest → newest.
    Appending a subsequent [`Append] drain to this image yields another
    valid image. *)

type image_data = {
  img_capacity : int;  (** capacity stamped in the header *)
  img_records : record list;
      (** the last [img_capacity] decodable records, oldest first *)
  img_frames : int;  (** record frames decoded (≥ [length img_records]) *)
  img_torn : bool;  (** a torn/corrupt suffix was discarded *)
}

val decode_image : string -> (image_data, string) result
(** Decode an image, tolerating a torn tail: a frame cut short by a
    crash, a checksum mismatch, or an undecodable payload ends the scan
    with [img_torn = true] and everything before it is kept.  [Error]
    only when the header frame itself is missing or damaged. *)

val reopen :
  ?capacity:int ->
  string ->
  (t * [ `Append_at of int | `Rewrite ], string) result
(** A recorder that already holds an image's records: the newest
    [capacity] (default 1024) of the records {!decode_image} reads from
    it, each kept as the frame the image holds, so {!image} re-emits
    them byte for byte.  They count as drained, and {!seq} continues
    after the newest one's [seq].  Paired with how the image continues:
    [`Append_at n] when its header stamps the recorder's capacity, so
    the recorder's drains appended to its first [n] bytes (its
    {!valid_prefix}) form a valid image; [`Rewrite] when it stamps
    another, so only a fresh {!image} is.  [Error] as {!decode_image}. *)

val valid_prefix : string -> int
(** Length of the longest prefix of [data] that is a whole, valid
    image prefix (header frame plus zero or more whole record frames);
    [0] when the header is damaged.  The scrubber truncates a damaged
    image here, after which it re-reads byte-identically. *)

val version : int
(** Current image format version. *)
