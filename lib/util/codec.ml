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

let get_list r get = List.init (get_u32 r) (fun _ -> get r)
let get_f64_array r = Array.init (get_u32 r) (fun _ -> get_f64 r)

let get_option r get =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get r)
  | n -> raise (Corrupt (Printf.sprintf "bad option byte %d" n))

(* --- formats ---------------------------------------------------------- *)

exception Refused of string

(* A format writes a ['w] and reads a ['r]; the two differ only while a
   record is under construction, when ['r] is its constructor still
   waiting for the fields after those read so far. *)
type ('w, 'r) fields = {
  write : writer -> 'w -> unit;
  read : reader -> 'r;
  skip : reader -> unit;
}

type 'a t = ('a, 'a) fields

let encode f v =
  let w = writer () in
  f.write w v;
  contents w

let decode f payload = f.read (reader payload)
let skip f payload = f.skip (reader payload)

let advance r n =
  need r n;
  r.pos <- r.pos + n

let fixed n write read = { write; read; skip = (fun r -> advance r n) }
let u8 = fixed 1 put_u8 get_u8
let u32 = fixed 4 put_u32 get_u32
let i64 = fixed 8 put_i64 get_i64
let int = fixed 8 put_int get_int
let f64 = fixed 8 put_f64 get_f64

let bool =
  { write = put_bool; read = get_bool; skip = (fun r -> ignore (get_bool r)) }

let string =
  {
    write = put_string;
    read = get_string;
    skip = (fun r -> advance r (get_u32 r));
  }

let f64_array =
  {
    write = put_f64_array;
    read = get_f64_array;
    skip = (fun r -> advance r (8 * get_u32 r));
  }

let list f =
  {
    write = (fun w l -> put_list w f.write l);
    read = (fun r -> get_list r f.read);
    skip = (fun r -> for _ = 1 to get_u32 r do f.skip r done);
  }

let option f =
  {
    write = (fun w o -> put_option w f.write o);
    read = (fun r -> get_option r f.read);
    skip =
      (fun r ->
        match get_u8 r with
        | 0 -> ()
        | 1 -> f.skip r
        | n -> raise (Corrupt (Printf.sprintf "bad option byte %d" n)));
  }

let const ?refuse f c =
  let check r =
    let v = f.read r in
    if v <> c then
      match refuse with
      | Some why -> raise (Refused (why v))
      | None -> raise (Corrupt "unexpected constant")
  in
  { write = (fun w () -> f.write w c); read = check; skip = check }

let exact f =
  let ends r = if not (at_end r) then raise (Corrupt "trailing bytes") in
  {
    f with
    read = (fun r -> let v = f.read r in ends r; v);
    skip = (fun r -> f.skip r; ends r);
  }

(* Each field is read under its own [let], after the fields before it:
   OCaml evaluates the components of a tuple or record right to left. *)
let record make =
  { write = (fun _ _ -> ()); read = (fun _ -> make); skip = ignore }

let unit = record ()
let field f get = (f, get)

let ( |+ ) b (f, get) =
  {
    write = (fun w v -> b.write w v; f.write w (get v));
    read = (fun r -> let make = b.read r in let v = f.read r in make v);
    skip = (fun r -> b.skip r; f.skip r);
  }

let ( |- ) b f =
  {
    write = (fun w v -> b.write w v; f.write w ());
    read = (fun r -> let make = b.read r in f.read r; make);
    skip = (fun r -> b.skip r; f.skip r);
  }

let seal b = b

(* Tuples are built from pairs, not with [record]: a case body is one,
   and a read through [record] allocates a closure per field. *)
let t2 a b =
  {
    write = (fun w (x, y) -> a.write w x; b.write w y);
    read = (fun r -> let x = a.read r in let y = b.read r in (x, y));
    skip = (fun r -> a.skip r; b.skip r);
  }

let conv inj proj f =
  {
    write = (fun w v -> f.write w (proj v));
    read = (fun r -> inj (f.read r));
    skip = f.skip;
  }

let t3 a b c =
  conv (fun (x, (y, z)) -> (x, y, z)) (fun (x, y, z) -> (x, (y, z)))
    (t2 a (t2 b c))

let t4 a b c d =
  conv
    (fun (x, (y, z, u)) -> (x, y, z, u))
    (fun (x, y, z, u) -> (x, (y, z, u)))
    (t2 a (t3 b c d))

let t5 a b c d e =
  conv
    (fun (x, (y, z, u, v)) -> (x, y, z, u, v))
    (fun (x, y, z, u, v) -> (x, (y, z, u, v)))
    (t2 a (t4 b c d e))

type 'a case =
  | Case : {
      tag : int;
      body : 'b t;
      inject : 'b -> 'a;
      project : 'a -> 'b option;
    }
      -> 'a case

let case tag body inject project = Case { tag; body; inject; project }

let const_case tag v =
  case tag unit (fun () -> v) (fun x -> if x = v then Some () else None)

let tagged ~unknown head kind_of cases =
  let by_tag = Array.make 256 None in
  List.iter (fun (Case c as k) -> by_tag.(c.tag) <- Some k) (List.rev cases);
  let find tag =
    match by_tag.(tag) with
    | Some c -> c
    | None -> raise (Corrupt (Printf.sprintf "%s %d" unknown tag))
  in
  let rec write_case w v kind = function
    | [] -> invalid_arg "Codec.tagged: no case matches the value"
    | Case c :: rest -> (
      match c.project kind with
      | Some b -> put_u8 w c.tag; head.write w v; c.body.write w b
      | None -> write_case w v kind rest)
  in
  {
    write = (fun w v -> write_case w v (kind_of v) cases);
    read =
      (fun r ->
        let (Case c) = find (get_u8 r) in
        let make = head.read r in
        let b = c.body.read r in
        make (c.inject b));
    skip =
      (fun r ->
        let (Case c) = find (get_u8 r) in
        head.skip r;
        c.body.skip r);
  }

let union ~unknown cases = tagged ~unknown (record Fun.id) Fun.id cases

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
