(* The multi-run registry: per-run fault isolation, restart-with-backoff,
   quarantine at the attempt cap, and manifest-driven resume.

   The pinned invariant: four concurrent runs, a crash + storage fault
   injected into run 2 only — runs 0, 1 and 3 finish byte-identical to
   a single-run reference at every --jobs, run 2 ends quarantined with
   its store intact, and a SIGKILL-style restart mid-incident brings
   every non-quarantined run back byte-identically while run 2 stays
   quarantined. *)

module Registry = Poc_daemon.Registry
module Protocol = Poc_daemon.Protocol
module Engine = Poc_daemon.Engine
module Framing = Poc_daemon.Framing
module Server = Poc_daemon.Server
module Fault = Poc_resilience.Fault
module Disk = Poc_resilience.Disk
module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Metrics = Poc_obs.Metrics
module Clock = Poc_obs.Clock
module Pool = Poc_util.Pool

let plan () = Lazy.force Fixtures.small_plan
let market = { Epochs.default_config with Epochs.epochs = 6; seed = 7 }

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    let rec go d =
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if Sys.is_directory p then go p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    in
    go dir
  end
  else if Sys.file_exists dir then Sys.remove dir

let with_tmp_root f =
  let root = Filename.temp_file "poc_registry" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf root with Sys_error _ -> ())
    (fun () -> f root)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let store_bytes store =
  (* One comparable string covering the whole store directory: every
     file, sorted by name. *)
  Sys.readdir store |> Array.to_list |> List.sort compare
  |> List.map (fun name -> name ^ ":" ^ read_file (Filename.concat store name))
  |> String.concat "\n"

let must_create = function
  | Ok reg -> reg
  | Error msg -> Alcotest.failf "registry create failed: %s" msg

let cmd line =
  match Protocol.parse_command line with
  | Ok c -> c
  | Error msg -> Alcotest.failf "bad test command %S: %s" line msg

let dispatch reg line = fst (Registry.dispatch reg (cmd line))

(* An injected now far past any armed backoff: every Failing run's
   retry is due. *)
let far_future () = Clock.now_us () +. 3.6e9

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The client script every run receives, in two halves: the incident
   (run 2's crash fires during the first EPOCH 3) happens inside the
   first; the second finishes the 6-epoch horizon. *)
let first_half = [ "BID 1 0 1.07 2"; "MATRIX 2 1.04"; "EPOCH 3" ]
let second_half = [ "BID 3 1 0.95"; "EPOCH 3" ]

let run_2_specs =
  [
    Fault.Crash { at_epoch = 3; phase = Fault.Pre_settle };
    Fault.Storage
      { at_epoch = 4; phase = Fault.Pre_settle;
        fault = Disk.Lying_fsync { drop = 64 } };
  ]

(* The single-run reference: same script, no faults, no concurrency. *)
let reference_bytes ?segment_bytes () =
  with_tmp_root (fun root ->
      let reg =
        must_create
          (Registry.create ?segment_bytes ~root (plan ()) ~market ())
      in
      List.iter
        (fun l -> ignore (dispatch reg l))
        (first_half @ second_half);
      ignore (dispatch reg "SHUTDOWN");
      store_bytes (Filename.concat root "store"))

let drive_all reg runs line =
  List.iter
    (fun r -> ignore (dispatch reg (Printf.sprintf "RUN %d %s" r line)))
    runs

(* Drive the four-run incident on an open registry: returns after run 2
   is quarantined and runs 0/1/3 completed their horizons. *)
let drive_incident reg =
  List.iter (drive_all reg [ 0; 1; 2; 3 ]) first_half;
  (match Registry.state_of reg 2 with
  | Some (Registry.Failing _) -> ()
  | _ -> Alcotest.fail "run 2 must be Failing after the injected crash");
  (* While failing, scoped requests answer BUSY with a retry-after. *)
  (match dispatch reg "RUN 2 STATUS" with
  | [ line ] ->
    Alcotest.(check bool) "failing answers BUSY" true (has_prefix "BUSY" line)
  | _ -> Alcotest.fail "unexpected BUSY shape");
  (* The backoff expires; the registry scrubs + resumes run 2 with the
     storage fault re-armed. *)
  Registry.tick reg ~now_us:(far_future ());
  (match Registry.state_of reg 2 with
  | Some Registry.Serving -> ()
  | _ -> Alcotest.fail "run 2 must be Serving after the due retry");
  List.iter (drive_all reg [ 0; 1; 2; 3 ]) second_half;
  (* Run 2 lost its pre-crash progress and restarted from epoch 1, so
     its client keeps driving it toward the horizon — and epoch 4 trips
     the armed storage fault: failure #2 breaches the attempt cap of 1
     and quarantines the run. *)
  ignore (dispatch reg "RUN 2 EPOCH 3");
  match Registry.state_of reg 2 with
  | Some (Registry.Quarantined _) -> ()
  | _ -> Alcotest.fail "run 2 must be Quarantined past the attempt cap"

let test_fault_isolation_quarantine jobs () =
  let reference = reference_bytes () in
  with_tmp_root (fun root ->
      Pool.with_pool ~jobs (fun pool ->
          let reg =
            must_create
              (Registry.create ?pool ~attempt_cap:1 ~runs:4 ~fault_run:2
                 ~fault_specs:run_2_specs ~root (plan ()) ~market ())
          in
          drive_incident reg;
          (* Quarantine is terminal: scoped requests answer GONE. *)
          (match dispatch reg "RUN 2 STATUS" with
          | [ line ] ->
            Alcotest.(check bool) "quarantined answers GONE" true
              (has_prefix "GONE" line)
          | _ -> Alcotest.fail "unexpected GONE shape");
          (* The state is exported on the labeled gauge. *)
          let prom = Metrics.to_prometheus Metrics.default in
          let has needle =
            let nl = String.length needle and pl = String.length prom in
            let rec at i =
              i + nl <= pl && (String.sub prom i nl = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool) "run-state gauge exported" true
            (has "poc_daemon_run_state{run=\"2\",state=\"quarantined\"} 1");
          (* Other runs kept settling: BUSY/GONE never leaked to them. *)
          (match dispatch reg "RUN 1 STATUS" with
          | [ line ] ->
            Alcotest.(check bool) "run 1 still serving" true
              (has_prefix "STATUS ok" line)
          | _ -> Alcotest.fail "unexpected STATUS shape");
          ignore (dispatch reg "SHUTDOWN");
          (* The fault-isolation invariant: the healthy runs are
             byte-identical to the single-run reference. *)
          List.iter
            (fun r ->
              match Registry.store_path reg r with
              | Some store ->
                Alcotest.(check bool)
                  (Printf.sprintf "run %d byte-identical at jobs=%d" r jobs)
                  true
                  (store_bytes store = reference)
              | None -> Alcotest.failf "run %d has no store" r)
            [ 0; 1; 3 ];
          (* Run 2's store survives quarantine, forensics-readable. *)
          match Registry.store_path reg 2 with
          | Some store ->
            Alcotest.(check bool) "quarantined store intact" true
              (Sys.file_exists store && store_bytes store <> "")
          | None -> Alcotest.fail "run 2 lost its store"))

let test_kill_and_restart_mid_incident () =
  let reference = reference_bytes () in
  with_tmp_root (fun root ->
      let reg1 =
        must_create
          (Registry.create ~attempt_cap:1 ~runs:4 ~fault_run:2
             ~fault_specs:run_2_specs ~root (plan ()) ~market ())
      in
      (* First half everywhere; run 2 crashes, retries, then trips the
         storage fault and quarantines — while runs 0/1/3 sit mid-
         horizon with an admitted-but-unapplied bid in their intakes. *)
      List.iter (drive_all reg1 [ 0; 1; 2; 3 ]) first_half;
      Registry.tick reg1 ~now_us:(far_future ());
      drive_all reg1 [ 0; 1; 2; 3 ] "BID 3 1 0.95";
      (* Run 2 restarted from epoch 1: two EPOCH batches reach epoch 4,
         where the armed storage fault quarantines it. *)
      ignore (dispatch reg1 "RUN 2 EPOCH 3");
      ignore (dispatch reg1 "RUN 2 EPOCH 3");
      (match Registry.state_of reg1 2 with
      | Some (Registry.Quarantined _) -> ()
      | _ -> Alcotest.fail "run 2 must be Quarantined before the kill");
      (* SIGKILL: no suspend, no flush — the registry is simply
         abandoned mid-incident.  ([reg1] stays referenced below so no
         finalizer can touch the files while the successor owns them.) *)
      let reg2 =
        must_create
          (Registry.create ~resume:true ~attempt_cap:1 ~root (plan ())
             ~market ())
      in
      (* Quarantine is durable: the manifest brings run 2 back
         quarantined, not serving. *)
      (match Registry.state_of reg2 2 with
      | Some (Registry.Quarantined _) -> ()
      | _ -> Alcotest.fail "quarantine must survive the restart");
      (match dispatch reg2 "RUN 2 STATUS" with
      | [ line ] ->
        Alcotest.(check bool) "still GONE after restart" true
          (has_prefix "GONE" line)
      | _ -> Alcotest.fail "unexpected GONE shape");
      (* The survivors resume — from their last durable checkpoint, so
         possibly re-running earlier epochs — and finish their
         horizons. *)
      drive_all reg2 [ 0; 1; 3 ] "EPOCH 6";
      ignore (dispatch reg2 "SHUTDOWN");
      List.iter
        (fun r ->
          match Registry.store_path reg2 r with
          | Some store ->
            Alcotest.(check bool)
              (Printf.sprintf "run %d byte-identical across the kill" r)
              true
              (store_bytes store = reference)
          | None -> Alcotest.failf "run %d has no store" r)
        [ 0; 1; 3 ];
      ignore (Sys.opaque_identity reg1))

let test_open_close_runs_lifecycle () =
  with_tmp_root (fun root ->
      let reg =
        must_create
          (Registry.create ~runs:1 ~max_runs:2 ~root (plan ()) ~market ())
      in
      (* OPEN a second run with its own horizon and seed. *)
      (match dispatch reg "OPEN 4 99" with
      | [ line ] ->
        Alcotest.(check bool) "open answers OK" true
          (has_prefix "OK run=1 opened" line)
      | _ -> Alcotest.fail "unexpected OPEN shape");
      (* At max-runs, OPEN answers BUSY, not an error. *)
      (match dispatch reg "OPEN" with
      | [ line ] ->
        Alcotest.(check bool) "open at cap answers BUSY" true
          (has_prefix "BUSY open" line)
      | _ -> Alcotest.fail "unexpected BUSY shape");
      (* RUNS lists both with states. *)
      (match dispatch reg "RUNS" with
      | lines ->
        Alcotest.(check int) "one line per run + terminal" 3
          (List.length lines));
      (* Requests route by RUN id; the second run answers. *)
      (match dispatch reg "RUN 1 STATUS" with
      | [ line ] ->
        Alcotest.(check bool) "run 1 serves" true
          (has_prefix "STATUS ok" line)
      | _ -> Alcotest.fail "unexpected STATUS shape");
      (* CLOSE is terminal: later requests answer GONE, and the slot
         frees capacity for a new OPEN. *)
      (match dispatch reg "CLOSE 1" with
      | [ line ] ->
        Alcotest.(check bool) "close answers OK" true
          (has_prefix "OK run=1 closed" line)
      | _ -> Alcotest.fail "unexpected CLOSE shape");
      (match dispatch reg "RUN 1 STATUS" with
      | [ line ] ->
        Alcotest.(check bool) "closed answers GONE" true
          (has_prefix "GONE" line)
      | _ -> Alcotest.fail "unexpected GONE shape");
      match dispatch reg "OPEN" with
      | [ line ] ->
        Alcotest.(check bool) "capacity freed" true
          (has_prefix "OK run=2 opened" line)
      | _ -> Alcotest.fail "unexpected reopen shape")

(* The installed flush re-renders every observability artifact (the
   whole trace, the metrics file), so a daemon-wide verb runs it once,
   however many runs it touches. *)
let test_one_flush_per_verb () =
  let flushes_of root verbs =
    let reg = must_create (Registry.create ~runs:3 ~root (plan ()) ~market ()) in
    let n = ref 0 in
    Registry.set_flush reg (fun () -> incr n);
    List.map
      (fun verb ->
        n := 0;
        (match verb with
        | "stop" -> ignore (Registry.stop reg : string)
        | line -> ignore (dispatch reg line));
        (verb, !n))
      verbs
  in
  let once verbs = List.map (fun v -> (v, 1)) verbs in
  let check verbs =
    with_tmp_root (fun root ->
        Alcotest.(check (list (pair string int)))
          "one flush per verb" (once verbs) (flushes_of root verbs))
  in
  check [ "QUIESCE"; "CLOSE 2"; "SHUTDOWN" ];
  check [ "stop" ]

let test_unknown_run_answers_err () =
  with_tmp_root (fun root ->
      let reg =
        must_create (Registry.create ~root (plan ()) ~market ())
      in
      match dispatch reg "RUN 9 STATUS" with
      | [ line ] ->
        Alcotest.(check bool) "unknown run answers ERR" true
          (has_prefix "ERR" line)
      | _ -> Alcotest.fail "unexpected ERR shape")

(* RUNS under damage.  A flipped byte inside an interior frame must
   refuse the resume (naming the file and offset) and leave the file as
   it was, rather than silently dropping every run recorded after it.
   A torn tail must be cut away, so a run opened after the resume is
   remembered by the next one. *)
let test_runs_manifest_damage () =
  let shutdown_four root =
    let reg =
      must_create (Registry.create ~runs:4 ~root (plan ()) ~market ())
    in
    ignore (dispatch reg "SHUTDOWN");
    read_file (Filename.concat root "RUNS")
  in
  let write root data =
    Out_channel.with_open_bin (Filename.concat root "RUNS") (fun oc ->
        Out_channel.output_string oc data)
  in
  let serving reg =
    List.filter_map
      (fun (i : Registry.run_info) ->
        if i.Registry.state = Registry.Serving then Some i.Registry.id
        else None)
      (Registry.runs reg)
  in
  with_tmp_root (fun root ->
      let data = shutdown_four root in
      Alcotest.(check int) "four 33-byte frames" 132 (String.length data);
      let b = Bytes.of_string data in
      Bytes.set b 50 (Char.chr (Char.code (Bytes.get b 50) lxor 0xFF));
      let damaged = Bytes.to_string b in
      write root damaged;
      (match Registry.create ~resume:true ~root (plan ()) ~market () with
      | Ok _ -> Alcotest.fail "resume must refuse a corrupt interior RUNS frame"
      | Error msg ->
        let has needle =
          let nl = String.length needle and ml = String.length msg in
          let rec at i =
            i + nl <= ml && (String.sub msg i nl = needle || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "error names RUNS" true (has "RUNS");
        Alcotest.(check bool) "error names the offset" true (has "byte 33"));
      Alcotest.(check bool) "RUNS left untouched" true
        (read_file (Filename.concat root "RUNS") = damaged));
  let resume root =
    must_create (Registry.create ~resume:true ~root (plan ()) ~market ())
  in
  with_tmp_root (fun root ->
      let data = shutdown_four root in
      write root (String.sub data 0 (String.length data - 3));
      let reg = resume root in
      Alcotest.(check (list int))
        "torn tail: runs 0-2 back" [ 0; 1; 2 ] (serving reg);
      (match dispatch reg "OPEN" with
      | [ line ] ->
        Alcotest.(check bool) "OPEN creates run 3" true
          (has_prefix "OK run=3 opened" line)
      | _ -> Alcotest.fail "unexpected OPEN shape");
      ignore (dispatch reg "SHUTDOWN");
      let reg = resume root in
      Alcotest.(check (list int))
        "run 3 remembered" [ 0; 1; 2; 3 ] (serving reg);
      ignore (dispatch reg "SHUTDOWN"))

(* A persistent disk error is a run failure like an injected crash:
   run 1's disk fails every rename once an EPOCH rotates its journal.
   The error must not escape the registry; run 1 walks backoff, scrub,
   resume (which fails again: reopening rewrites the manifest) and
   quarantine, while the other runs finish byte-identical to the
   single-run reference. *)
let test_disk_error_stays_in_run () =
  let segment_bytes = 512 in
  let reference = reference_bytes ~segment_bytes () in
  let no_raise what f =
    try f ()
    with exn -> Alcotest.failf "%s raised %s" what (Printexc.to_string exn)
  in
  let state reg = Registry.state_of reg 1 in
  with_tmp_root (fun root ->
      let broken = ref false in
      let disk_for ~run =
        if run <> 1 then Engine.retrying_disk ()
        else
          Disk.with_ops
            {
              Disk.real_ops with
              Disk.rename =
                (fun a b ->
                  if !broken then raise (Sys_error "injected: rename failed")
                  else Disk.real_ops.Disk.rename a b);
            }
      in
      let reg =
        must_create
          (Registry.create ~segment_bytes ~attempt_cap:2 ~disk_for ~runs:3
             ~root (plan ()) ~market ())
      in
      let dispatch line = no_raise line (fun () -> dispatch reg line) in
      let drive runs line =
        List.iter
          (fun r -> ignore (dispatch (Printf.sprintf "RUN %d %s" r line)))
          runs
      in
      (* Each tick an hour past the last: every armed backoff is due. *)
      let clock = ref (far_future ()) in
      let tick () =
        clock := !clock +. 3.6e9;
        no_raise "tick" (fun () -> Registry.tick reg ~now_us:!clock)
      in
      List.iter (drive [ 0; 1; 2 ]) [ "BID 1 0 1.07 2"; "MATRIX 2 1.04" ];
      broken := true;
      (match dispatch "RUN 1 EPOCH 3" with
      | [ line ] ->
        Alcotest.(check bool) "the failing EPOCH answers BUSY ... failing" true
          (has_prefix "BUSY run=1 " line
          && List.mem "failing" (String.split_on_char ' ' line))
      | lines ->
        Alcotest.failf "unexpected EPOCH reply: %s" (String.concat " | " lines));
      (match state reg with
      | Some (Registry.Failing { attempts = 1; _ }) -> ()
      | _ -> Alcotest.fail "run 1 must be Failing after the disk error");
      drive [ 0; 2 ] "EPOCH 3";
      (* The due retry scrubs and resumes; the resume hits the same
         disk and fails again, leaving no file handle open behind it. *)
      let open_fds () =
        if Sys.file_exists "/proc/self/fd" then
          Some (Array.length (Sys.readdir "/proc/self/fd"))
        else None
      in
      let fds = open_fds () in
      tick ();
      Alcotest.(check (option int)) "no handle leaked by the failed resume"
        fds (open_fds ());
      (match state reg with
      | Some (Registry.Failing { attempts = 2; cause; _ }) ->
        Alcotest.(check bool) "the retry got past scrub into resume" true
          (has_prefix "resume failed: " cause)
      | _ -> Alcotest.fail "run 1 must be Failing after one failed retry");
      tick ();
      (match state reg with
      | Some (Registry.Quarantined _) -> ()
      | _ -> Alcotest.fail "run 1 must be Quarantined past the attempt cap");
      (match dispatch "RUN 1 STATUS" with
      | [ line ] ->
        Alcotest.(check bool) "quarantined answers GONE" true
          (has_prefix "GONE run=1" line)
      | _ -> Alcotest.fail "unexpected GONE shape");
      List.iter (drive [ 0; 2 ]) second_half;
      ignore (dispatch "SHUTDOWN");
      List.iter
        (fun r ->
          match Registry.store_path reg r with
          | Some store ->
            Alcotest.(check bool)
              (Printf.sprintf "run %d byte-identical to the reference" r)
              true
              (store_bytes store = reference)
          | None -> Alcotest.failf "run %d has no store" r)
        [ 0; 2 ];
      match Registry.store_path reg 1 with
      | Some store ->
        Alcotest.(check bool) "quarantined store kept" true
          (Sys.file_exists store)
      | None -> Alcotest.fail "run 1 lost its store")

(* Whether a run completed is read from its journal's replay, never
   from an error message: a root whose path contains "complete" must
   not close a run whose store is simply gone. *)
let test_completed_read_from_replay () =
  let root = Filename.temp_file "poc_registry_complete" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf root with Sys_error _ -> ())
    (fun () ->
      let runs_path = Filename.concat root "RUNS" in
      let reg =
        must_create (Registry.create ~runs:2 ~root (plan ()) ~market ())
      in
      ignore (dispatch reg "RUN 0 EPOCH 6");
      ignore (dispatch reg "SHUTDOWN");
      let data = read_file runs_path in
      Alcotest.(check int) "two opens and run 0's close" 83
        (String.length data);
      (* As if the daemon died between run 0's completion record and
         its RUNS close: both runs read open.  Run 1 loses its store
         but keeps its intake log. *)
      Out_channel.with_open_bin runs_path (fun oc ->
          Out_channel.output_string oc (String.sub data 0 66));
      rm_rf (Filename.concat root "runs/00001/store");
      let reg =
        must_create
          (Registry.create ~resume:true ~root (plan ()) ~market ())
      in
      (match Registry.state_of reg 0 with
      | Some Registry.Closed -> ()
      | _ -> Alcotest.fail "run 0's journal is complete: it must close");
      (match Registry.state_of reg 1 with
      | Some (Registry.Failing _) -> ()
      | s ->
        Alcotest.failf "run 1 lost its store: it must fail, not %s"
          (match s with Some s -> Registry.state_name s | None -> "vanish"));
      Alcotest.(check int) "RUNS gains run 0's close only" 83
        (String.length (read_file runs_path));
      ignore (dispatch reg "SHUTDOWN"))

(* BYE names the epoch a resume restarts at — the one after the last
   checkpoint — not the live loop's next epoch.  With a snapshot every
   4 epochs of 8, a shutdown after 3 epochs resumes at epoch 1 and one
   after 4 at epoch 5, each what the resumed run's STATUS reports. *)
let test_bye_names_resume_epoch () =
  let market = { market with Epochs.epochs = 8 } in
  let only what = function
    | [ line ] -> line
    | lines -> Alcotest.failf "%s: expected one line, got %d" what (List.length lines)
  in
  List.iter
    (fun (epochs, next) ->
      with_tmp_root (fun root ->
          let reg =
            must_create
              (Registry.create ~snapshot_every:4 ~root (plan ()) ~market ())
          in
          ignore (dispatch reg (Printf.sprintf "EPOCH %d" epochs));
          Alcotest.(check string)
            (Printf.sprintf "BYE after EPOCH %d" epochs)
            (Printf.sprintf "BYE resumable next=%d runs=1" next)
            (only "SHUTDOWN" (dispatch reg "SHUTDOWN"));
          let reg =
            must_create
              (Registry.create ~resume:true ~snapshot_every:4 ~root (plan ())
                 ~market ())
          in
          let status = only "STATUS" (dispatch reg "STATUS") in
          Alcotest.(check bool)
            (Printf.sprintf "resumed STATUS after EPOCH %d: %s" epochs status)
            true
            (has_prefix (Printf.sprintf "STATUS ok next=%d " next) status);
          ignore (dispatch reg "SHUTDOWN")))
    [ (3, 1); (4, 5) ]

(* A root under missing parents is created, parents included, and so
   is every run's directory; a root under a regular file is an
   [Error], not an exception. *)
let test_root_created_or_refused () =
  with_tmp_root (fun tmp ->
      let root = Filename.concat tmp "a/b/root" in
      let reg =
        must_create
          (Registry.create ~flight:true ~runs:2 ~root (plan ()) ~market ())
      in
      ignore (dispatch reg "SHUTDOWN");
      List.iter
        (fun r ->
          match Registry.store_path reg r with
          | Some store ->
            Alcotest.(check bool)
              (Printf.sprintf "run %d's store and flight box made" r)
              true
              (Sys.file_exists (Filename.concat store "FLIGHT"))
          | None -> Alcotest.failf "run %d has no store" r)
        [ 0; 1 ];
      let file = Filename.concat tmp "file" in
      Out_channel.with_open_bin file (fun _ -> ());
      match
        Registry.create ~root:(Filename.concat file "root") (plan ()) ~market ()
      with
      | Ok _ -> Alcotest.fail "a root under a regular file must not open"
      | Error msg ->
        Alcotest.(check bool) "the error names the root" true
          (has_prefix "cannot create " msg))

(* The server's wire rule: a connection whose first byte is not the
   frame magic is closed, so a line client reads EOF; after a
   connection's first frame, garbage arriving at a frame boundary is
   resynced and the frame behind it is still answered. *)
let test_server_first_byte_rule () =
  with_tmp_root (fun root ->
      let reg = must_create (Registry.create ~root (plan ()) ~market ()) in
      let socket_path = Filename.concat root "sock" in
      let server =
        Domain.spawn (fun () ->
            Server.serve
              { Server.socket_path; metrics_port = None; idle_timeout = 30.0 }
              reg)
      in
      let rec connect tries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
        | () -> fd
        | exception Unix.Unix_error _ when tries > 0 ->
          Unix.close fd;
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
      (* The lines of the next reply, or [None] at EOF; 5 s at most. *)
      let read_reply fd =
        let buf = Buffer.create 64 and b = Bytes.create 4096 in
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec go () =
          let replies =
            List.filter_map
              (function Framing.Reply r -> Some r | Framing.Msg _ -> None)
              (Framing.decode_stream (Buffer.contents buf) ~pos:0).Framing.items
          in
          if List.exists (fun r -> r.Framing.final) replies then
            Some (List.map (fun r -> r.Framing.line) replies)
          else
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0. then Alcotest.fail "neither a reply nor EOF in 5 s";
            match Unix.select [ fd ] [] [] left with
            | [], _, _ -> go ()
            | _ -> (
              match Unix.read fd b 0 4096 with
              | 0 -> None
              | n ->
                Buffer.add_subbytes buf b 0 n;
                go ())
        in
        go ()
      in
      let status = Framing.encode_msg (Framing.Status { run = 0 }) in
      let answers_status fd what =
        match read_reply fd with
        | Some [ line ] ->
          Alcotest.(check bool) what true (has_prefix "STATUS ok" line)
        | _ -> Alcotest.failf "%s: no STATUS reply" what
      in
      Fun.protect
        ~finally:(fun () ->
          let c = connect 100 in
          send c (Framing.encode_msg Framing.Shutdown);
          ignore (read_reply c);
          Unix.close c;
          Alcotest.(check int) "SHUTDOWN exits 0" 0 (Domain.join server))
        (fun () ->
          let line_client = connect 100 in
          send line_client "STATUS\n";
          Alcotest.(check bool) "a line client reads EOF" true
            (read_reply line_client = None);
          Unix.close line_client;
          let c = connect 100 in
          send c status;
          answers_status c "a frame is answered";
          send c ("STATUS\n" ^ status);
          answers_status c "garbage at a frame boundary is resynced";
          Unix.close c))

let suite =
  [
    Alcotest.test_case "open/close/runs lifecycle" `Slow
      test_open_close_runs_lifecycle;
    Alcotest.test_case "unknown run answers ERR" `Slow
      test_unknown_run_answers_err;
    Alcotest.test_case "one observability flush per verb" `Slow
      test_one_flush_per_verb;
    Alcotest.test_case "fault isolation + quarantine (jobs=1)" `Slow
      (test_fault_isolation_quarantine 1);
    Alcotest.test_case "fault isolation + quarantine (jobs=2)" `Slow
      (test_fault_isolation_quarantine 2);
    Alcotest.test_case "kill + restart mid-incident" `Slow
      test_kill_and_restart_mid_incident;
    Alcotest.test_case "RUNS: corrupt frame refused, torn tail cut" `Slow
      test_runs_manifest_damage;
    Alcotest.test_case "a run's disk error stays inside the run" `Slow
      test_disk_error_stays_in_run;
    Alcotest.test_case "completion read from the replay" `Slow
      test_completed_read_from_replay;
    Alcotest.test_case "BYE names the epoch a resume restarts at" `Slow
      test_bye_names_resume_epoch;
    Alcotest.test_case "root made with its parents, or refused" `Slow
      test_root_created_or_refused;
    Alcotest.test_case "server closes a non-frame first byte only" `Slow
      test_server_first_byte_rule;
  ]
