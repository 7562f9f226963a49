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

(* The update's tag and body, then the rest of the entry.  Bytes after
   the record are ignored. *)
let record_format =
  Codec.(
    record (fun payload seq apply_epoch priority displaces ->
        let entry = { Admission.seq; apply_epoch; priority; payload } in
        { entry; displaces })
    |+ field
         (union ~unknown:"intake record tag"
            [
              case 0 (t2 int f64)
                (fun (bp, factor) -> Supervisor.Scale_bid { bp; factor })
                (function
                  | Supervisor.Scale_bid { bp; factor } -> Some (bp, factor)
                  | _ -> None);
              case 1 f64 (fun factor -> Supervisor.Scale_demand { factor })
                (function
                  | Supervisor.Scale_demand { factor } -> Some factor
                  | _ -> None);
            ])
         (fun r -> r.entry.Admission.payload)
    |+ field int (fun r -> r.entry.Admission.seq)
    |+ field int (fun r -> r.entry.Admission.apply_epoch)
    |+ field int (fun r -> r.entry.Admission.priority)
    |+ field (option int) (fun r -> r.displaces)
    |> seal)

let decode = Codec.decode record_format

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
  let bytes = Codec.frame (Codec.encode record_format r) in
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
