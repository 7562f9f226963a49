type writer = Buffer.t

let writer () = Buffer.create 256
let contents = Buffer.contents
let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b v
let put_int b v = put_i64 b (Int64.of_int v)
let put_f64 b v = put_i64 b (Int64.bits_of_float v)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b put l =
  put_u32 b (List.length l);
  List.iter (put b) l

let put_option b put = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put b v

let put_f64_array b a =
  put_u32 b (Array.length a);
  Array.iter (put_f64 b) a

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let pos r = r.pos
let at_end r = r.pos >= String.length r.data

let need r n =
  if r.pos + n > String.length r.data then
    raise (Corrupt (Printf.sprintf "short read: need %d bytes at %d" n r.pos))

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r = Int64.to_int (get_i64 r)
let get_f64 r = Int64.float_of_bits (get_i64 r)

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Corrupt (Printf.sprintf "bad bool byte %d" n))

let get_string r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let skip r n =
  need r n;
  r.pos <- r.pos + n

let skip_string r = skip r (get_u32 r)

let get_list r get = List.init (get_u32 r) (fun _ -> get r)
let get_f64_array r = Array.init (get_u32 r) (fun _ -> get_f64 r)

let get_option r get =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get r)
  | n -> raise (Corrupt (Printf.sprintf "bad option byte %d" n))

(* CRC-32, IEEE 802.3 reflected polynomial, table-driven, on native
   ints: every value fits in 32 bits, so no byte boxes an [Int32]. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let frame payload =
  let b = writer () in
  put_u32 b (String.length payload);
  put_u32 b (crc32 payload);
  Buffer.add_string b payload;
  contents b

type frame_result =
  | Frame of { payload : string; next : int }
  | End
  | Torn

let next_frame ?max_payload data ~pos =
  let total = String.length data in
  if pos >= total then End
  else if pos + 8 > total then Torn
  else
    let r = { data; pos } in
    let len = get_u32 r in
    let crc = get_u32 r in
    if (match max_payload with Some m -> len > m | None -> false) then Torn
    else if r.pos + len > total then Torn
    else
      let payload = String.sub data r.pos len in
      if crc32 payload <> crc then Torn
      else Frame { payload; next = r.pos + len }

let resync data ~pos =
  (* Empty frames are skipped: 8 zero bytes checksum as a valid
     zero-length frame (CRC-32 of "" is 0), so a run of zeroed garbage
     would otherwise "resync" to a phantom record. Every real record
     carries at least a tag byte. *)
  let total = String.length data in
  let rec scan p =
    if p + 8 > total then None
    else
      match next_frame data ~pos:p with
      | Frame { payload; _ } when String.length payload > 0 -> Some p
      | Frame _ | Torn -> scan (p + 1)
      | End -> None
  in
  scan (max 0 pos)

type verdict = Clean | Torn_tail | Corrupt_at of int

type 'a scan = { frames : ('a * int) list; valid : int; verdict : verdict }

let scan ~from ~decode data =
  let stop acc pos verdict = { frames = List.rev acc; valid = pos; verdict } in
  let damaged acc pos =
    match resync data ~pos:(pos + 1) with
    | Some _ -> stop acc pos (Corrupt_at pos)
    | None -> stop acc pos Torn_tail
  in
  let rec walk acc pos =
    match next_frame data ~pos with
    | End -> stop acc pos Clean
    | Torn -> damaged acc pos
    | Frame { payload; next } -> (
      match decode payload with
      | v -> walk ((v, next) :: acc) next
      | exception Corrupt _ -> damaged acc pos)
  in
  walk [] from

let single data =
  match next_frame data ~pos:0 with
  | Frame { payload; next } when next = String.length data -> Some payload
  | Frame _ | End | Torn -> None
