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

(* --- record format ------------------------------------------------------- *)

(* The kind's tag, then the head every kind shares, then the kind's
   body.  Refuses trailing bytes. *)
let record_format =
  Codec.(
    exact
      (tagged ~unknown:"flight: unknown tag"
         (record (fun seq ts_us epoch phase kind ->
              { seq; ts_us; epoch; phase; kind })
         |+ field int (fun r -> r.seq)
         |+ field f64 (fun r -> r.ts_us)
         |+ field int (fun r -> r.epoch)
         |+ field string (fun r -> r.phase))
         (fun r -> r.kind)
         [
           case 0 string (fun name -> Span_open { name })
             (function Span_open { name } -> Some name | _ -> None);
           case 1 (t2 string f64)
             (fun (name, dur_us) -> Span_close { name; dur_us })
             (function
               | Span_close { name; dur_us } -> Some (name, dur_us)
               | _ -> None);
           case 2 (t2 string string)
             (fun (name, detail) -> Event { name; detail })
             (function
               | Event { name; detail } -> Some (name, detail) | _ -> None);
           case 3 (t2 string string)
             (fun (incident, detail) -> Incident { incident; detail })
             (function
               | Incident { incident; detail } -> Some (incident, detail)
               | _ -> None);
           case 4 (t2 string f64) (fun (name, delta) -> Metric { name; delta })
             (function
               | Metric { name; delta } -> Some (name, delta) | _ -> None);
         ]))

(* The tag and the head's first field.  A frame [Codec.skip] passes is
   read this far and no further, so reopening builds no record. *)
let seq_of payload = snd (Codec.decode Codec.(t2 u8 int) payload)

(* --- ring ---------------------------------------------------------------- *)

let emit t ?ts_us ~epoch ~phase kind =
  let ts_us = match ts_us with Some t -> t | None -> Clock.now_us () in
  locked t (fun () ->
      let r = { seq = t.total; ts_us; epoch; phase; kind } in
      let framed = Codec.frame (Codec.encode record_format r) in
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
        out := Codec.decode record_format (frame_payload t.slots.(slot)) :: !out
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

(* Refuses trailing bytes. *)
let header_format =
  Codec.(
    exact
      (record Fun.id
      |- const string magic ~refuse:(fun _ -> "not a flight image")
      |- const u32 version
           ~refuse:(Printf.sprintf "flight image version %d")
      |+ field int Fun.id
      |> seal))

let image t =
  locked t (fun () ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (Codec.frame (Codec.encode header_format t.cap));
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
  match Codec.decode header_format payload with
  | cap when cap >= 1 -> Ok cap
  | _ | (exception Codec.Corrupt _) -> Error "bad flight header"
  | exception Codec.Refused e -> Error e

(* The header frame, then one scan of the record frames after it, which
   starts at the returned offset.  [decode] decodes or skips
   [record_format]: both refuse exactly the same frames, so the scan
   stops at the same frame with the same verdict either way. *)
let scan_image ~decode data =
  match Codec.next_frame data ~pos:0 with
  | Codec.End -> Error "empty flight image"
  | Codec.Torn -> Error "flight image header damaged"
  | Codec.Frame { payload; next } ->
    Result.map
      (fun cap -> (cap, next, Codec.scan ~from:next ~decode data))
      (decode_header payload)

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
    (scan_image ~decode:(Codec.decode record_format) data)

let valid_prefix data =
  match scan_image ~decode:(Codec.skip record_format) data with
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
    (scan_image
       ~decode:(fun payload ->
         Codec.skip record_format payload;
         seq_of payload)
       data)
