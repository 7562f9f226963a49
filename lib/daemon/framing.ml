module Codec = Poc_util.Codec

let magic = '\xB1'
let max_payload = 1 lsl 20

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

type reply = { run : int; final : bool; line : string }
type item = Msg of msg | Reply of reply

let to_command : msg -> Protocol.command = function
  | Open { run; epochs; seed } -> Protocol.Open_run { run; epochs; seed }
  | Bid { run; seq; bp; factor; priority } ->
    Protocol.Scoped { run; req = Protocol.Bid { seq; bp; factor; priority } }
  | Matrix { run; seq; factor; priority } ->
    Protocol.Scoped { run; req = Protocol.Matrix { seq; factor; priority } }
  | Epoch { run; count } -> Protocol.Scoped { run; req = Protocol.Epoch count }
  | Status { run } -> Protocol.Scoped { run; req = Protocol.Status }
  | Scrub { run } -> Protocol.Scoped { run; req = Protocol.Scrub }
  | Close { run } -> Protocol.Close_run { run }
  | Runs -> Protocol.List_runs
  | Metrics -> Protocol.Scoped { run = 0; req = Protocol.Metrics_dump }
  | Quiesce -> Protocol.Scoped { run = 0; req = Protocol.Quiesce }
  | Shutdown -> Protocol.Scoped { run = 0; req = Protocol.Shutdown }

let of_command : Protocol.command -> msg = function
  | Protocol.Scoped { run; req } -> (
    match req with
    | Protocol.Bid { seq; bp; factor; priority } ->
      Bid { run; seq; bp; factor; priority }
    | Protocol.Matrix { seq; factor; priority } ->
      Matrix { run; seq; factor; priority }
    | Protocol.Epoch count -> Epoch { run; count }
    | Protocol.Status -> Status { run }
    | Protocol.Scrub -> Scrub { run }
    | Protocol.Metrics_dump -> Metrics
    | Protocol.Quiesce -> Quiesce
    | Protocol.Shutdown -> Shutdown)
  | Protocol.Open_run { run; epochs; seed } -> Open { run; epochs; seed }
  | Protocol.Close_run { run } -> Close { run }
  | Protocol.List_runs -> Runs

(* Wire tags: 1..11 are requests, 64 and 65 replies (continuation and
   final); gaps are left for future verbs, so old decoders drop (rather
   than misread) new ones.  A payload holds exactly one item.  The
   writer tries the cases in list order, so the replies, one frame per
   line the daemon sends, come first; tags are explicit, so the order
   moves no byte. *)
let item_format =
  Codec.(
    exact
      (union ~unknown:"framing tag"
         [
           case 64 (t2 int string)
             (fun (run, line) -> Reply { run; final = false; line })
             (function
               | Reply { run; final = false; line } -> Some (run, line)
               | _ -> None);
           case 65 (t2 int string)
             (fun (run, line) -> Reply { run; final = true; line })
             (function
               | Reply { run; final = true; line } -> Some (run, line)
               | _ -> None);
           case 1 (t3 (option int) (option int) (option int))
             (fun (run, epochs, seed) -> Msg (Open { run; epochs; seed }))
             (function
               | Msg (Open { run; epochs; seed }) -> Some (run, epochs, seed)
               | _ -> None);
           case 2 (t5 int int int f64 int)
             (fun (run, seq, bp, factor, priority) ->
               Msg (Bid { run; seq; bp; factor; priority }))
             (function
               | Msg (Bid { run; seq; bp; factor; priority }) ->
                 Some (run, seq, bp, factor, priority)
               | _ -> None);
           case 3 (t4 int int f64 int)
             (fun (run, seq, factor, priority) ->
               Msg (Matrix { run; seq; factor; priority }))
             (function
               | Msg (Matrix { run; seq; factor; priority }) ->
                 Some (run, seq, factor, priority)
               | _ -> None);
           case 4 (t2 int int)
             (fun (run, count) -> Msg (Epoch { run; count }))
             (function
               | Msg (Epoch { run; count }) -> Some (run, count) | _ -> None);
           case 5 int (fun run -> Msg (Status { run }))
             (function Msg (Status { run }) -> Some run | _ -> None);
           case 6 int (fun run -> Msg (Scrub { run }))
             (function Msg (Scrub { run }) -> Some run | _ -> None);
           case 7 int (fun run -> Msg (Close { run }))
             (function Msg (Close { run }) -> Some run | _ -> None);
           const_case 8 (Msg Runs);
           const_case 9 (Msg Metrics);
           const_case 10 (Msg Quiesce);
           const_case 11 (Msg Shutdown);
         ]))

let encode item =
  let framed = Codec.frame (Codec.encode item_format item) in
  let b = Buffer.create (String.length framed + 1) in
  Buffer.add_char b magic;
  Buffer.add_string b framed;
  Buffer.contents b

let encode_msg m = encode (Msg m)
let encode_reply r = encode (Reply r)

type progress = { items : item list; consumed : int; dropped : int }

(* A complete-but-corrupt frame at [pos] (checksum mismatch, or a
   length field past [max_payload]) is distinguished from one still in
   flight: only the former abandons the frame and rescans for the next
   magic byte.  [Codec.next_frame] answers [Torn] for both, so peek at
   the header ourselves. *)
let frame_is_corrupt data ~pos =
  let total = String.length data in
  if pos + 8 > total then false (* header still in flight *)
  else
    let b i = Char.code data.[pos + i] in
    let len = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if len > max_payload then true
    else pos + 8 + len <= total (* whole frame present yet still Torn: CRC *)

let decode_stream data ~pos =
  let total = String.length data in
  let resync_from p =
    match String.index_from_opt data p magic with
    | Some j -> j
    | None -> total
  in
  let rec go pos items dropped =
    if pos >= total then { items = List.rev items; consumed = pos; dropped }
    else if data.[pos] <> magic then
      (* Garbage between frames: skip to the next candidate magic. *)
      go (resync_from (pos + 1)) items (dropped + 1)
    else
      match Codec.next_frame ~max_payload data ~pos:(pos + 1) with
      | Codec.Frame { payload; next } -> (
        match Codec.decode item_format payload with
        | item -> go next (item :: items) dropped
        | exception Codec.Corrupt _ ->
          (* Checksum-valid but undecodable (version skew or a garbled
             tag): drop the one frame, keep the connection. *)
          go next items (dropped + 1))
      | Codec.End | Codec.Torn ->
        if frame_is_corrupt data ~pos:(pos + 1) then
          (* Garbled in transit: abandon this frame and hunt for the
             next magic byte — one bad frame, not a dead connection. *)
          go (resync_from (pos + 1)) items (dropped + 1)
        else
          (* Incomplete: wait for more bytes from this offset. *)
          { items = List.rev items; consumed = pos; dropped }
  in
  go pos [] 0
