module Codec = Poc_util.Codec

type kind =
  | Span_open of { name : string }
  | Span_close of { name : string; dur_us : float }
  | Event of { name : string; detail : string }
  | Incident of { incident : string; detail : string }
  | Metric of { name : string; delta : float }

type record = {
  seq : int;
  ts_us : float;
  epoch : int;
  phase : string;
  kind : kind;
}

let version = 1

let magic = "POCFLT"

type t = {
  cap : int;
  slots : string array;  (* framed record bytes; "" = never written *)
  mutable next : int;  (* next slot to overwrite *)
  mutable held : int;  (* slots holding a record *)
  mutable total : int;  (* records ever emitted: the next record's seq *)
  mutable drained : int;  (* [seq] up to which the owner has drained *)
  pending : Buffer.t;  (* frames since the last drain, unless wrapped *)
  mu : Mutex.t;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  {
    cap = capacity;
    slots = Array.make capacity "";
    next = 0;
    held = 0;
    total = 0;
    drained = 0;
    pending = Buffer.create 256;
    mu = Mutex.create ();
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- record encoding ----------------------------------------------------- *)

let tag_of_kind = function
  | Span_open _ -> 0
  | Span_close _ -> 1
  | Event _ -> 2
  | Incident _ -> 3
  | Metric _ -> 4

let encode_record r =
  let w = Codec.writer () in
  Codec.put_u8 w (tag_of_kind r.kind);
  Codec.put_int w r.seq;
  Codec.put_f64 w r.ts_us;
  Codec.put_int w r.epoch;
  Codec.put_string w r.phase;
  (match r.kind with
  | Span_open { name } -> Codec.put_string w name
  | Span_close { name; dur_us } ->
    Codec.put_string w name;
    Codec.put_f64 w dur_us
  | Event { name; detail } ->
    Codec.put_string w name;
    Codec.put_string w detail
  | Incident { incident; detail } ->
    Codec.put_string w incident;
    Codec.put_string w detail
  | Metric { name; delta } ->
    Codec.put_string w name;
    Codec.put_f64 w delta);
  Codec.frame (Codec.contents w)

let decode_record payload =
  let r = Codec.reader payload in
  let tag = Codec.get_u8 r in
  let seq = Codec.get_int r in
  let ts_us = Codec.get_f64 r in
  let epoch = Codec.get_int r in
  let phase = Codec.get_string r in
  let kind =
    match tag with
    | 0 -> Span_open { name = Codec.get_string r }
    | 1 ->
      let name = Codec.get_string r in
      Span_close { name; dur_us = Codec.get_f64 r }
    | 2 ->
      let name = Codec.get_string r in
      Event { name; detail = Codec.get_string r }
    | 3 ->
      let incident = Codec.get_string r in
      Incident { incident; detail = Codec.get_string r }
    | 4 ->
      let name = Codec.get_string r in
      Metric { name; delta = Codec.get_f64 r }
    | n -> raise (Codec.Corrupt (Printf.sprintf "flight: unknown tag %d" n))
  in
  if not (Codec.at_end r) then
    raise (Codec.Corrupt "flight: trailing bytes in record");
  { seq; ts_us; epoch; phase; kind }

(* [decode_record]'s checks, on the same bytes in the same order, with
   nothing built: the tag, every string's length and the trailing bytes.
   Only the [seq] is read. *)
let record_seq payload =
  let r = Codec.reader payload in
  let tag = Codec.get_u8 r in
  let seq = Codec.get_int r in
  Codec.skip r 16 (* ts_us, epoch *);
  Codec.skip_string r (* phase *);
  (match tag with
  | 0 -> Codec.skip_string r
  | 1 | 4 ->
    Codec.skip_string r;
    Codec.skip r 8
  | 2 | 3 ->
    Codec.skip_string r;
    Codec.skip_string r
  | n -> raise (Codec.Corrupt (Printf.sprintf "flight: unknown tag %d" n)));
  if not (Codec.at_end r) then
    raise (Codec.Corrupt "flight: trailing bytes in record");
  seq

(* --- ring ---------------------------------------------------------------- *)

let emit t ?ts_us ~epoch ~phase kind =
  let ts_us = match ts_us with Some t -> t | None -> Clock.now_us () in
  locked t (fun () ->
      let r = { seq = t.total; ts_us; epoch; phase; kind } in
      let framed = encode_record r in
      t.slots.(t.next) <- framed;
      t.next <- (t.next + 1) mod t.cap;
      if t.held < t.cap then t.held <- t.held + 1;
      t.total <- t.total + 1;
      (* Once the undrained backlog exceeds the capacity an incremental
         append can no longer be assembled from live slots; stop
         buffering and let [drain] report the wrap. *)
      if t.total - t.drained <= t.cap then Buffer.add_string t.pending framed
      else Buffer.clear t.pending)

let seq t = locked t (fun () -> t.total)

let stored t = locked t (fun () -> t.held)

let dropped t = locked t (fun () -> t.total - t.held)

let frame_payload framed =
  match Codec.next_frame framed ~pos:0 with
  | Codec.Frame { payload; _ } -> payload
  | Codec.End | Codec.Torn -> raise (Codec.Corrupt "flight: bad slot frame")

let records t =
  locked t (fun () ->
      let n = t.held in
      let out = ref [] in
      for i = 1 to n do
        let slot = (t.next + t.cap - i) mod t.cap in
        out := decode_record (frame_payload t.slots.(slot)) :: !out
      done;
      !out)

let pending_bytes t =
  locked t (fun () ->
      if t.total - t.drained > t.cap then 0 else Buffer.length t.pending)

let drain t =
  locked t (fun () ->
      let backlog = t.total - t.drained in
      t.drained <- t.total;
      let bytes = Buffer.contents t.pending in
      Buffer.clear t.pending;
      if backlog = 0 then `Empty
      else if backlog > t.cap then `Wrapped
      else `Append bytes)

(* --- on-disk image ------------------------------------------------------- *)

let header_frame cap =
  let w = Codec.writer () in
  Codec.put_string w magic;
  Codec.put_u32 w version;
  Codec.put_int w cap;
  Codec.frame (Codec.contents w)

let image t =
  locked t (fun () ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (header_frame t.cap);
      let n = t.held in
      (* oldest -> newest *)
      for i = n downto 1 do
        let slot = (t.next + t.cap - i) mod t.cap in
        Buffer.add_string buf t.slots.(slot)
      done;
      Buffer.contents buf)

type image_data = {
  img_capacity : int;
  img_records : record list;
  img_frames : int;
  img_torn : bool;
}

let decode_header payload =
  let r = Codec.reader payload in
  let m = Codec.get_string r in
  if m <> magic then Error "not a flight image"
  else
    let v = Codec.get_u32 r in
    if v <> version then Error (Printf.sprintf "flight image version %d" v)
    else
      let cap = Codec.get_int r in
      if cap < 1 || not (Codec.at_end r) then Error "bad flight header"
      else Ok cap

(* The header frame, then one scan of the record frames after it, which
   starts at the returned offset.  [decode] is [decode_record] or
   [record_seq]: both refuse exactly the same frames, so the scan stops
   at the same frame with the same verdict either way. *)
let scan_image ~decode data =
  match Codec.next_frame data ~pos:0 with
  | Codec.End -> Error "empty flight image"
  | Codec.Torn -> Error "flight image header damaged"
  | Codec.Frame { payload; next } -> (
    match decode_header payload with
    | Ok cap -> Ok (cap, next, Codec.scan ~from:next ~decode data)
    | Error e -> Error e
    | exception Codec.Corrupt _ -> Error "bad flight header")

let decode_image data =
  Result.map
    (fun (cap, _, s) ->
      (* Only the newest [cap] frames are the ring's contents; an
         append-grown image legitimately holds more. *)
      let frames = List.length s.Codec.frames in
      {
        img_capacity = cap;
        img_records =
          List.filteri
            (fun i _ -> i >= frames - cap)
            (List.map fst s.Codec.frames);
        img_frames = frames;
        img_torn = s.Codec.verdict <> Codec.Clean;
      })
    (scan_image ~decode:decode_record data)

let valid_prefix data =
  match scan_image ~decode:decode_record data with
  | Ok (_, _, s) -> s.Codec.valid
  | Error _ -> 0

(* Each kept record's slot is its frame as the image holds it, so no
   record is decoded or encoded again and every [seq] stays as
   emitted. *)
let reopen ?capacity data =
  Result.map
    (fun (cap, first, s) ->
      let t = create ?capacity () in
      let skip = List.length s.Codec.frames - t.cap in
      ignore
        (List.fold_left
           (fun (i, start) (seq, stop) ->
             if i >= skip then begin
               t.slots.(t.next) <- String.sub data start (stop - start);
               t.next <- (t.next + 1) mod t.cap;
               t.held <- t.held + 1;
               t.total <- max t.held (seq + 1)
             end;
             (i + 1, stop))
           (0, first) s.Codec.frames);
      t.drained <- t.total;
      (t, if cap = t.cap then `Append_at s.Codec.valid else `Rewrite))
    (scan_image ~decode:record_seq data)
