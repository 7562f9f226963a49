module Prng = Poc_util.Prng

type fault =
  | Short_write of { drop : int }
  | Torn_rename
  | Lying_fsync of { drop : int }
  | Corrupt_byte of { seed : int }

let fault_to_string = function
  | Short_write { drop } -> Printf.sprintf "short_write:%d" drop
  | Torn_rename -> "torn_rename"
  | Lying_fsync { drop } -> Printf.sprintf "lying_fsync:%d" drop
  | Corrupt_byte { seed } -> Printf.sprintf "corrupt_byte:%d" seed

let fault_of_string s =
  let kind, arg =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let num default =
    match arg with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (Printf.sprintf "disk fault %S: argument must be >= 1" s)
    | None -> Ok default
  in
  match kind with
  | "short_write" -> Result.map (fun drop -> Short_write { drop }) (num 6)
  | "torn_rename" -> Ok Torn_rename
  | "lying_fsync" -> Result.map (fun drop -> Lying_fsync { drop }) (num 64)
  | "corrupt_byte" -> Result.map (fun seed -> Corrupt_byte { seed }) (num 1)
  | _ ->
    Error
      (Printf.sprintf
         "unknown disk fault %S: expected short_write[:DROP], torn_rename, \
          lying_fsync[:DROP] or corrupt_byte[:SEED]"
         s)

type ops = {
  open_append : string -> out_channel;
  open_trunc : string -> out_channel;
  read_file : string -> string;
  rename : string -> string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;
  readdir : string -> string array;
  exists : string -> bool;
  is_directory : string -> bool;
}

let real_ops =
  {
    open_append =
      (fun path ->
        open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
          path);
    open_trunc = (fun path -> open_out_bin path);
    read_file = (fun path -> In_channel.with_open_bin path In_channel.input_all);
    rename = Sys.rename;
    remove = Sys.remove;
    mkdir = (fun path -> Sys.mkdir path 0o755);
    readdir = Sys.readdir;
    exists = Sys.file_exists;
    is_directory = (fun path -> try Sys.is_directory path with Sys_error _ -> false);
  }

(* --- transient-error retries --------------------------------------------- *)

type retry_policy = {
  retry_attempts : int;
  retry_base_delay : float;
  retry_multiplier : float;
  retry_max_delay : float;
  retry_jitter : float;
  retry_seed : int;
}

let default_retry_policy =
  {
    retry_attempts = 4;
    retry_base_delay = 0.005;
    retry_multiplier = 2.0;
    retry_max_delay = 0.25;
    retry_jitter = 0.25;
    retry_seed = 1;
  }

let retry_delays policy =
  if policy.retry_attempts < 0 then
    invalid_arg "Disk: retry_attempts must be >= 0";
  if
    (not (Float.is_finite policy.retry_base_delay))
    || policy.retry_base_delay < 0.0
  then invalid_arg "Disk: retry_base_delay must be finite and >= 0";
  if policy.retry_multiplier < 1.0 then
    invalid_arg "Disk: retry_multiplier must be >= 1";
  if policy.retry_jitter < 0.0 || policy.retry_jitter > 1.0 then
    invalid_arg "Disk: retry_jitter must be in [0,1]";
  let rng = Prng.create policy.retry_seed in
  List.init policy.retry_attempts (fun i ->
      let backoff =
        Float.min policy.retry_max_delay
          (policy.retry_base_delay
          *. (policy.retry_multiplier ** float_of_int i))
      in
      backoff *. (1.0 +. (policy.retry_jitter *. Prng.float rng)))

let retrying ?(policy = default_retry_policy) ?(sleep = Unix.sleepf)
    ?(on_retry = fun ~op:_ ~attempt:_ ~delay:_ _ -> ()) ops =
  let delays = retry_delays policy in
  (* One shared jittered-delay schedule, consumed op by op: each
     transient failure anywhere on the disk advances the same
     deterministic backoff sequence, which resets after any success —
     the behaviour of a device that is either struggling or not. *)
  let pending = ref delays in
  let guard op f =
    let rec attempt n =
      match f () with
      | v ->
        pending := delays;
        v
      | exception Sys_error msg -> (
        match !pending with
        | [] -> raise (Sys_error msg)
        | delay :: rest ->
          pending := rest;
          on_retry ~op ~attempt:n ~delay msg;
          if delay > 0.0 then sleep delay;
          attempt (n + 1))
    in
    attempt 1
  in
  {
    open_append = (fun p -> guard "open_append" (fun () -> ops.open_append p));
    open_trunc = (fun p -> guard "open_trunc" (fun () -> ops.open_trunc p));
    read_file = (fun p -> guard "read_file" (fun () -> ops.read_file p));
    rename = (fun a b -> guard "rename" (fun () -> ops.rename a b));
    remove = (fun p -> guard "remove" (fun () -> ops.remove p));
    mkdir = (fun p -> guard "mkdir" (fun () -> ops.mkdir p));
    readdir = (fun p -> guard "readdir" (fun () -> ops.readdir p));
    exists = ops.exists;
    is_directory = ops.is_directory;
  }

type file = { path : string; oc : out_channel }

(* Power-cut metadata: enough to model each fault as damage to the
   state the journal believes is durable. *)
type t = {
  ops : ops;
  mutable last_append : (string * int) option;  (* path, size of last append *)
  mutable last_rename : (string * string option) option;
      (* destination, its pre-rename contents (None = did not exist) *)
  mutable active : string option;  (* most recently appended-to path *)
}

let with_ops ops = { ops; last_append = None; last_rename = None; active = None }
let real () = with_ops real_ops
let open_append t path = { path; oc = t.ops.open_append path }
let open_trunc t path = { path; oc = t.ops.open_trunc path }

let append t f s =
  output_string f.oc s;
  t.last_append <- Some (f.path, String.length s);
  t.active <- Some f.path;
  (* A subsequent append (each one is synced by the journal) makes the
     last directory operation durable on any real filesystem's
     journal; only the most recent rename can still be torn. *)
  t.last_rename <- None

let sync _t f = flush f.oc
let close_file _t f = close_out f.oc
let file_path f = f.path
let read_file t path = t.ops.read_file path

let write_file_atomic t path content =
  let prior = if t.ops.exists path then Some (t.ops.read_file path) else None in
  let tmp = path ^ ".tmp" in
  let oc = t.ops.open_trunc tmp in
  output_string oc content;
  flush oc;
  close_out oc;
  t.ops.rename tmp path;
  t.last_rename <- Some (path, prior)

let truncate_file t path n =
  let contents = t.ops.read_file path in
  let n = max 0 (min n (String.length contents)) in
  let oc = t.ops.open_trunc path in
  output_string oc (String.sub contents 0 n);
  flush oc;
  close_out oc

let remove t path = if t.ops.exists path then t.ops.remove path
(* Parents first, each level through [ops], so a fault-injecting
   backend sees every mkdir.  A level that exists but is no directory
   is named as such, not handed to mkdir. *)
let rec mkdir_p t path =
  if not (t.ops.is_directory path) then begin
    if t.ops.exists path then raise (Sys_error (path ^ ": Not a directory"));
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p t parent;
    t.ops.mkdir path
  end
let readdir t path = t.ops.readdir path
let exists t path = t.ops.exists path
let is_directory t path = t.ops.is_directory path
let rename t src dst = t.ops.rename src dst

let drop_tail t path k =
  if k > 0 && t.ops.exists path then begin
    let len = String.length (t.ops.read_file path) in
    truncate_file t path (max 0 (len - k))
  end

let power_cut t fault =
  match fault with
  | Short_write { drop } -> (
    match t.last_append with
    | Some (path, size) -> drop_tail t path (min drop size)
    | None -> ())
  | Lying_fsync { drop } -> (
    match t.active with
    | Some path -> drop_tail t path drop
    | None -> ())
  | Torn_rename -> (
    match t.last_rename with
    | Some (dst, Some prior) ->
      let oc = t.ops.open_trunc dst in
      output_string oc prior;
      flush oc;
      close_out oc
    | Some (dst, None) -> remove t dst
    | None -> ())
  | Corrupt_byte { seed } -> (
    match t.active with
    | Some path when t.ops.exists path ->
      let contents = t.ops.read_file path in
      let len = String.length contents in
      if len > 0 then begin
        let rng = Prng.create seed in
        let off = Prng.int rng len in
        let mask = 1 + Prng.int rng 255 in
        let b = Bytes.of_string contents in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
        let oc = t.ops.open_trunc path in
        output_string oc (Bytes.to_string b);
        flush oc;
        close_out oc
      end
    | Some _ | None -> ())
