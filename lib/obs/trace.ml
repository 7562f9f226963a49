type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_attrs : (string * value) list;
}

type record = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_us : float;
  end_us : float;
  attrs : (string * value) list;
  events : event list;
}

type sink = { emit : record -> unit; flush : unit -> unit }

type span = int

let null_span = 0

(* A span still being recorded; attrs/events accumulate in reverse. *)
type open_span = {
  o_id : int;
  o_parent : int;
  o_depth : int;
  o_name : string;
  o_start : float;
  mutable o_attrs : (string * value) list;
  mutable o_events : event list;
}

let current_sink = ref None

(* Each domain nests its own spans: a pool worker's span never becomes
   the parent of another domain's.  Ids are unique across domains. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key
let next_id = Atomic.make 1

(* Sinks are not domain-safe themselves: every call into one holds this. *)
let sink_mu = Mutex.create ()

let enabled () = match !current_sink with None -> false | Some _ -> true

let emit_record k o ~end_us =
  let r =
    {
      id = o.o_id;
      parent = o.o_parent;
      depth = o.o_depth;
      name = o.o_name;
      start_us = o.o_start;
      end_us;
      attrs = List.rev o.o_attrs;
      events = List.rev o.o_events;
    }
  in
  Mutex.protect sink_mu (fun () -> k.emit r)

let finish_all_open () =
  let stack = stack () in
  (match !current_sink with
  | None -> ()
  | Some k ->
    let now = Clock.now_us () in
    List.iter (fun o -> emit_record k o ~end_us:now) !stack);
  stack := []

let flush_sink () =
  match !current_sink with
  | None -> ()
  | Some k -> Mutex.protect sink_mu k.flush

let set_sink s =
  finish_all_open ();
  flush_sink ();
  current_sink := s;
  Atomic.set next_id 1;
  match s with Some _ -> Clock.reset_origin () | None -> ()

let span name =
  match !current_sink with
  | None -> null_span
  | Some _ ->
    let stack = stack () in
    let o_parent, o_depth =
      match !stack with [] -> (0, 0) | p :: _ -> (p.o_id, p.o_depth + 1)
    in
    let o_id = Atomic.fetch_and_add next_id 1 in
    stack :=
      {
        o_id;
        o_parent;
        o_depth;
        o_name = name;
        o_start = Clock.now_us ();
        o_attrs = [];
        o_events = [];
      }
      :: !stack;
    o_id

let finish s =
  if s <> null_span then begin
    match !current_sink with
    | None -> ()
    | Some k ->
      let stack = stack () in
      if List.exists (fun o -> o.o_id = s) !stack then begin
        let now = Clock.now_us () in
        let rec pop () =
          match !stack with
          | [] -> ()
          | o :: rest ->
            stack := rest;
            emit_record k o ~end_us:now;
            if o.o_id <> s then pop ()
        in
        pop ()
      end
  end

let add_attr s key v =
  if s <> null_span then begin
    match List.find_opt (fun o -> o.o_id = s) !(stack ()) with
    | Some o -> o.o_attrs <- (key, v) :: o.o_attrs
    | None -> ()
  end

let event ?attrs name =
  match !current_sink with
  | None -> ()
  | Some _ -> (
    match !(stack ()) with
    | [] -> ()
    | o :: _ ->
      o.o_events <-
        {
          ev_name = name;
          ev_ts_us = Clock.now_us ();
          ev_attrs = (match attrs with None -> [] | Some a -> a);
        }
        :: o.o_events)

let with_span name f =
  let s = span name in
  Fun.protect ~finally:(fun () -> finish s) f

let open_spans () = List.length !(stack ())

(* --- ring buffer sink --------------------------------------------------- *)

module Ring = struct
  type t = {
    slots : record option array;
    mutable next : int;  (* next write position *)
    mutable stored : int;  (* total spans ever emitted *)
  }

  let create ?(capacity = 4096) () =
    if capacity < 1 then invalid_arg "Trace.Ring.create: capacity must be >= 1";
    { slots = Array.make capacity None; next = 0; stored = 0 }

  let sink t =
    {
      emit =
        (fun r ->
          t.slots.(t.next) <- Some r;
          t.next <- (t.next + 1) mod Array.length t.slots;
          t.stored <- t.stored + 1);
      flush = (fun () -> ());
    }

  let records t =
    let n = Array.length t.slots in
    let out = ref [] in
    for i = 0 to n - 1 do
      match t.slots.((t.next + n - 1 - i) mod n) with
      | Some r -> out := r :: !out
      | None -> ()
    done;
    !out

  let dropped t = max 0 (t.stored - Array.length t.slots)
end

(* --- Chrome trace-event JSON sink --------------------------------------- *)

module Chrome = struct
  type t = { mutable recs : record list }

  let create () = { recs = [] }

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let add_value buf = function
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else begin
        Buffer.add_char buf '"';
        escape buf (Printf.sprintf "%h" f);
        Buffer.add_char buf '"'
      end
    | Bool b -> Buffer.add_string buf (string_of_bool b)

  let add_args buf extra attrs =
    Buffer.add_string buf "\"args\":{";
    let first = ref true in
    let pair k add_v =
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_char buf '"';
      escape buf k;
      Buffer.add_string buf "\":";
      add_v ()
    in
    List.iter (fun (k, v) -> pair k (fun () -> add_value buf v)) extra;
    List.iter (fun (k, v) -> pair k (fun () -> add_value buf v)) attrs;
    Buffer.add_char buf '}'

  (* Parents sort before children: earlier start, and on a tied start
     the smaller depth.  Instant events interleave by timestamp. *)
  let to_json t =
    let spans =
      List.sort
        (fun a b ->
          match compare a.start_us b.start_us with
          | 0 -> compare a.depth b.depth
          | c -> c)
        t.recs
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let sep () =
      if not !first then Buffer.add_string buf ",\n";
      first := false
    in
    List.iter
      (fun r ->
        sep ();
        Buffer.add_string buf "{\"name\":\"";
        escape buf r.name;
        Buffer.add_string buf "\",\"cat\":\"poc\",\"ph\":\"X\",";
        Buffer.add_string buf
          (Printf.sprintf "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
             r.start_us
             (Float.max 0.0 (r.end_us -. r.start_us)));
        add_args buf
          [ ("span_id", Int r.id); ("parent_id", Int r.parent) ]
          r.attrs;
        Buffer.add_char buf '}';
        List.iter
          (fun ev ->
            sep ();
            Buffer.add_string buf "{\"name\":\"";
            escape buf ev.ev_name;
            Buffer.add_string buf "\",\"cat\":\"poc\",\"ph\":\"i\",";
            Buffer.add_string buf
              (Printf.sprintf "\"ts\":%.3f,\"pid\":1,\"tid\":1,\"s\":\"t\","
                 ev.ev_ts_us);
            add_args buf [ ("span_id", Int r.id) ] ev.ev_attrs;
            Buffer.add_char buf '}')
          r.events)
      spans;
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let write t path =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (to_json t))

  let sink ?path t =
    {
      emit = (fun r -> t.recs <- r :: t.recs);
      flush =
        (match path with
        | None -> fun () -> ()
        | Some p -> fun () -> write t p);
    }
end
