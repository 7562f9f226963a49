module Codec = Poc_util.Codec
module Disk = Poc_resilience.Disk
module Log = Poc_resilience.Log
module Supervisor = Poc_resilience.Supervisor

type record = {
  entry : Supervisor.update Admission.entry;
  displaces : int option;
}

type t = {
  log : Log.t;
  log_path : string;
  retry : Disk.retry_policy;
  sleep : float -> unit;
  on_retry : attempt:int -> delay:float -> string -> unit;
}

let encode ({ entry; displaces } : record) =
  let w = Codec.writer () in
  (match entry.Admission.payload with
  | Supervisor.Scale_bid { bp; factor } ->
    Codec.put_u8 w 0;
    Codec.put_int w bp;
    Codec.put_f64 w factor
  | Supervisor.Scale_demand { factor } ->
    Codec.put_u8 w 1;
    Codec.put_f64 w factor);
  Codec.put_int w entry.Admission.seq;
  Codec.put_int w entry.Admission.apply_epoch;
  Codec.put_int w entry.Admission.priority;
  Codec.put_option w Codec.put_int displaces;
  Codec.frame (Codec.contents w)

let decode payload =
  let r = Codec.reader payload in
  let payload_of_tag tag =
    match tag with
    | 0 ->
      let bp = Codec.get_int r in
      let factor = Codec.get_f64 r in
      Supervisor.Scale_bid { bp; factor }
    | 1 ->
      let factor = Codec.get_f64 r in
      Supervisor.Scale_demand { factor }
    | n -> raise (Codec.Corrupt (Printf.sprintf "intake record tag %d" n))
  in
  let payload = payload_of_tag (Codec.get_u8 r) in
  let seq = Codec.get_int r in
  let apply_epoch = Codec.get_int r in
  let priority = Codec.get_int r in
  let displaces = Codec.get_option r Codec.get_int in
  { entry = { Admission.seq; apply_epoch; priority; payload }; displaces }

let make ~retry ~sleep ~on_retry ~log_path log =
  (* Validate the policy eagerly so a malformed one fails at open, not
     at the first transient fault. *)
  ignore (Disk.retry_delays retry : float list);
  { log; log_path; retry; sleep; on_retry }

let create ?(disk = Disk.real ()) ?(retry = Disk.default_retry_policy)
    ?(sleep = Unix.sleepf) ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ())
    log_path =
  make ~retry ~sleep ~on_retry ~log_path (Log.create disk log_path)

(* A checksum-valid record that does not decode is version skew, not
   damage: [reopen] lets it escape the scan instead of truncating. *)
exception Undecodable of string

let reopen ?(disk = Disk.real ()) ?(retry = Disk.default_retry_policy)
    ?(sleep = Unix.sleepf) ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ())
    log_path =
  let make = make ~retry ~sleep ~on_retry ~log_path in
  let strict payload =
    try decode payload with Codec.Corrupt msg -> raise (Undecodable msg)
  in
  if not (Disk.exists disk log_path) then
    Ok (make (Log.reopen disk log_path ~at:0 ~truncate:false), [])
  else
    match Log.replay disk log_path ~decode:strict with
    | exception Undecodable msg ->
      Error (Printf.sprintf "intake %s: undecodable record: %s" log_path msg)
    | { Codec.verdict = Codec.Corrupt_at off; _ } ->
      (* Damage with whole records after it: those records are
         admissions clients saw OK'd.  Refuse rather than drop them. *)
      Error
        (Printf.sprintf
           "intake %s: corrupt record at byte %d with records after it; \
            refusing to drop acknowledged admissions"
           log_path off)
    | s ->
      (* A torn tail is the bytes of an OK that never reached a
         client: cut it away. *)
      Ok
        ( make
            (Log.reopen disk log_path ~at:s.Codec.valid
               ~truncate:(s.Codec.verdict <> Codec.Clean)),
          List.map fst s.Codec.frames )

let read ?(disk = Disk.real ()) log_path =
  match Log.replay disk log_path ~decode with
  | exception Sys_error e -> Error e
  | s -> Ok (List.map fst s.Codec.frames, s.Codec.verdict <> Codec.Clean)

let append t r =
  let bytes = encode r in
  (* The flush-before-OK path rides the same jittered-backoff
     discipline as [Disk.retrying]: a transiently failing device (a
     failed flush, a short write surfacing as [Sys_error]) heals and
     retries instead of failing the admission;
     a persistently failing one exhausts the schedule and re-raises
     with the log restored to its last durable length. *)
  let rec go attempt delays =
    match Log.append t.log bytes with
    | () -> ()
    | exception Sys_error msg -> (
      match delays with
      | [] -> raise (Sys_error msg)
      | delay :: rest ->
        t.on_retry ~attempt ~delay msg;
        if delay > 0.0 then t.sleep delay;
        go (attempt + 1) rest)
  in
  go 1 (Disk.retry_delays t.retry)

let close t = Log.close t.log
let path t = t.log_path
