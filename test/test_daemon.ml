(* Daemon layer: protocol parsing, admission control, the durable
   intake log, and the engine's kill-under-load recovery story. *)

module Protocol = Poc_daemon.Protocol
module Admission = Poc_daemon.Admission
module Intake = Poc_daemon.Intake
module Engine = Poc_daemon.Engine
module Supervisor = Poc_resilience.Supervisor
module Fault = Poc_resilience.Fault
module Disk = Poc_resilience.Disk
module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Prng = Poc_util.Prng

let plan () = Lazy.force Fixtures.small_plan
let market = { Epochs.default_config with Epochs.epochs = 6; seed = 7 }

let crash_schedule plan ~at_epoch ~phase =
  match
    Fault.compile plan.Planner.wan ~seed:2020
      [ Fault.Crash { at_epoch; phase } ]
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "crash schedule rejected: %s" msg

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

(* A fresh daemon root: store directory path + intake path, cleaned up
   afterwards. *)
let with_tmp_root f =
  let root = Filename.temp_file "poc_daemon" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf root with Sys_error _ -> ())
    (fun () -> f (Filename.concat root "store") (Filename.concat root "intake.log"))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let store_bytes store =
  (* One comparable string covering the whole store directory: every
     file, sorted by name. *)
  Sys.readdir store |> Array.to_list |> List.sort compare
  |> List.map (fun name -> name ^ ":" ^ read_file (Filename.concat store name))
  |> String.concat "\n"

(* --- Protocol --- *)

let test_protocol_roundtrip () =
  let cases =
    [
      Protocol.Bid { seq = 3; bp = 1; factor = 1.05; priority = 2 };
      Protocol.Matrix { seq = 9; factor = 0.97; priority = 0 };
      Protocol.Epoch 4;
      Protocol.Status;
      Protocol.Metrics_dump;
      Protocol.Scrub;
      Protocol.Quiesce;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.parse (Protocol.render req) with
      | Ok req' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trips %S" (Protocol.render req))
          true (req = req')
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    cases;
  (match Protocol.parse "  BID 1 0 1.1\r" with
  | Ok (Protocol.Bid { priority = 0; _ }) -> ()
  | _ -> Alcotest.fail "blanks/CR tolerated, priority defaults to 0");
  match Protocol.parse "EPOCH" with
  | Ok (Protocol.Epoch 1) -> ()
  | _ -> Alcotest.fail "bare EPOCH defaults to one epoch"

let test_protocol_rejects_garbage () =
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      ""; "NOPE"; "BID"; "BID x 0 1.1"; "BID 1 0 nan"; "EPOCH 0"; "EPOCH -2";
      "STATUS now"; "MATRIX 1"; "BID 1 0 inf";
    ]

let test_protocol_framing () =
  Alcotest.(check bool) "terminal" true (Protocol.is_terminal "OK 1");
  Alcotest.(check bool) "continuation" false (Protocol.is_terminal "| x 1");
  Alcotest.(check string) "payload strips" "x 1" (Protocol.payload "| x 1");
  Alcotest.(check string) "wraps" "| x" (Protocol.continuation "x");
  match Protocol.continuation "a\nb" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "newline payloads must be refused"

(* --- Admission --- *)

let entry ?(apply_epoch = 1) ?(priority = 0) seq =
  { Admission.seq; apply_epoch; priority; payload = seq }

let test_admission_bounds_and_backpressure () =
  let q = Admission.create ~high_water:3 () in
  for s = 1 to 3 do
    match Admission.offer q (entry s) with
    | Admission.Admitted { shed = None } -> ()
    | _ -> Alcotest.failf "seq %d should admit cleanly" s
  done;
  Alcotest.(check int) "full" 3 (Admission.depth q);
  let retry i =
    match Admission.offer q (entry (10 + i)) with
    | Admission.Rejected { retry_after } -> retry_after
    | _ -> Alcotest.fail "queue past high water must reject equals"
  in
  let retries = List.map retry [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list (float 1e-9)))
    "0.05 s, doubling per rejection, capped at 1 s"
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.0; 1.0 ]
    retries;
  Alcotest.(check int) "depth never exceeded" 3 (Admission.depth q)

let test_admission_sheds_lowest_priority_oldest () =
  let q = Admission.create ~high_water:3 () in
  ignore (Admission.offer q (entry ~priority:1 1));
  ignore (Admission.offer q (entry ~priority:0 2));
  ignore (Admission.offer q (entry ~priority:0 3));
  (* Priority 0 ties between 2 and 3: the oldest (2) is the victim. *)
  (match Admission.offer q (entry ~priority:2 4) with
  | Admission.Admitted { shed = Some v } ->
    Alcotest.(check int) "sheds oldest lowest-priority" 2 v.Admission.seq
  | _ -> Alcotest.fail "higher priority must displace");
  Alcotest.(check int) "still at high water" 3 (Admission.depth q);
  (* The queue now holds priorities {1; 0; 2}.  An equal-priority offer
     never displaces: strictly-greater only. *)
  match Admission.offer q (entry ~priority:0 5) with
  | Admission.Rejected _ -> ()
  | _ -> Alcotest.fail "equal priority must not shed"

let test_admission_dedup_and_drain () =
  let q = Admission.create ~high_water:8 () in
  ignore (Admission.offer q (entry ~apply_epoch:1 1));
  ignore (Admission.offer q (entry ~apply_epoch:2 2));
  (match Admission.offer q (entry 1) with
  | Admission.Duplicate -> ()
  | _ -> Alcotest.fail "replayed seq must answer Duplicate");
  (match Admission.offer q (entry 2) with
  | Admission.Duplicate -> ()
  | _ -> Alcotest.fail "last_seq floor applies to every older seq");
  let ready = Admission.drain q ~epoch:1 in
  Alcotest.(check (list int)) "drains only due epochs" [ 1 ]
    (List.map (fun (e : _ Admission.entry) -> e.Admission.seq) ready);
  Alcotest.(check int) "rest stays queued" 1 (Admission.depth q);
  Admission.drop q ~seq:2;
  Alcotest.(check int) "drop removes" 0 (Admission.depth q);
  Admission.force q (entry ~apply_epoch:9 7);
  Alcotest.(check int) "force requeues" 1 (Admission.depth q);
  match Admission.offer q (entry 7) with
  | Admission.Duplicate -> ()
  | _ -> Alcotest.fail "force raises the dedup floor"

(* --- Intake --- *)

let bid_entry seq ~apply_epoch ~bp ~factor =
  {
    Admission.seq;
    apply_epoch;
    priority = 0;
    payload = Supervisor.Scale_bid { bp; factor };
  }

let test_intake_roundtrip_and_torn_tail () =
  with_tmp_root (fun _store intake_path ->
      let log = Intake.create intake_path in
      let r1 = { Intake.entry = bid_entry 1 ~apply_epoch:1 ~bp:0 ~factor:1.5;
                 displaces = None } in
      let r2 =
        {
          Intake.entry =
            {
              Admission.seq = 2; apply_epoch = 2; priority = 3;
              payload = Supervisor.Scale_demand { factor = 0.9 };
            };
          displaces = Some 1;
        }
      in
      Intake.append log r1;
      Intake.append log r2;
      Intake.close log;
      (match Intake.reopen intake_path with
      | Error msg -> Alcotest.failf "reopen failed: %s" msg
      | Ok (log, records) ->
        Intake.close log;
        Alcotest.(check bool) "records survive verbatim" true
          (records = [ r1; r2 ]));
      (* A torn tail — the bytes of an OK that never reached the client
         — truncates silently; durable records survive. *)
      let data = read_file intake_path in
      Out_channel.with_open_bin intake_path (fun oc ->
          Out_channel.output_string oc (data ^ "\x07garbage"));
      (match Intake.reopen intake_path with
      | Error msg -> Alcotest.failf "torn reopen failed: %s" msg
      | Ok (log, records) ->
        Intake.close log;
        Alcotest.(check int) "torn tail dropped, prefix kept" 2
          (List.length records);
        Alcotest.(check int) "file truncated to the durable prefix"
          (String.length data)
          (String.length (read_file intake_path)));
      (* A flipped byte inside the first of the two records is interior
         damage: the second record is an admission a client saw OK'd,
         so reopen refuses, naming the file and the byte offset, and
         leaves the file as it was. *)
      let damaged = Bytes.of_string data in
      Bytes.set damaged 12 (Char.chr (Char.code (Bytes.get damaged 12) lxor 0xFF));
      let damaged = Bytes.to_string damaged in
      Out_channel.with_open_bin intake_path (fun oc ->
          Out_channel.output_string oc damaged);
      (match Intake.reopen intake_path with
      | Ok _ -> Alcotest.fail "reopen must refuse interior damage"
      | Error msg ->
        let has needle =
          let nl = String.length needle and ml = String.length msg in
          let rec at i =
            i + nl <= ml && (String.sub msg i nl = needle || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "error names the file" true (has intake_path);
        Alcotest.(check bool) "error names the offset" true (has "byte 0"));
      Alcotest.(check bool) "damaged log left in place" true
        (read_file intake_path = damaged);
      (* A checksum-valid record that does not decode is version skew,
         not damage: reopen refuses and truncates nothing, while the
         read-only replay keeps the prefix and flags the tail. *)
      let skewed = data ^ Poc_util.Codec.frame "\x09" in
      Out_channel.with_open_bin intake_path (fun oc ->
          Out_channel.output_string oc skewed);
      (match Intake.reopen intake_path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "reopen must refuse an undecodable record");
      Alcotest.(check bool) "undecodable record left in place" true
        (read_file intake_path = skewed);
      match Intake.read intake_path with
      | Ok (records, true) ->
        Alcotest.(check int) "read keeps the decodable prefix" 2
          (List.length records)
      | Ok (_, false) -> Alcotest.fail "read must flag the undecodable tail"
      | Error msg -> Alcotest.failf "read failed: %s" msg)

let test_intake_missing_file_is_empty () =
  with_tmp_root (fun _store intake_path ->
      match Intake.reopen intake_path with
      | Ok (log, []) -> Intake.close log
      | Ok (_, _ :: _) -> Alcotest.fail "phantom records"
      | Error msg -> Alcotest.failf "missing file must reopen empty: %s" msg)

(* --- Engine --- *)

let must_create = function
  | Ok engine -> engine
  | Error r ->
    Alcotest.failf "engine create failed: %s" (Supervisor.refusal_to_string r)

let req line =
  match Protocol.parse line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "bad test request %S: %s" line msg

let drive engine lines =
  List.concat_map (fun line -> Engine.handle engine (req line)) lines

let client_script =
  [ "BID 1 0 1.07 2"; "MATRIX 2 1.04"; "EPOCH 3"; "BID 3 1 0.95"; "EPOCH 3" ]

(* Whether a closed store carries its completion record.  A store
   without one must still replay, i.e. stay resumable. *)
let completed store =
  match Poc_resilience.Journal.replay store with
  | Ok r -> r.Poc_resilience.Journal.complete <> None
  | Error msg -> Alcotest.failf "closed store does not replay: %s" msg

let test_engine_completes_and_is_deterministic () =
  let plan = plan () in
  let run () =
    with_tmp_root (fun store intake ->
        let engine =
          must_create
            (Engine.create ~store ~intake plan ~market
               ~schedule:Fault.none)
        in
        let lines = drive engine client_script in
        Engine.close engine;
        (lines, store_bytes store, completed store))
  in
  let lines_a, bytes_a, completed_a = run () in
  let lines_b, bytes_b, _ = run () in
  Alcotest.(check (list string)) "responses are deterministic" lines_a lines_b;
  Alcotest.(check bool) "store bytes are deterministic" true
    (bytes_a = bytes_b);
  Alcotest.(check bool) "horizon completed" true completed_a;
  match
    List.find_opt
      (fun l ->
        String.length l >= 9 && String.sub l 0 9 = "| epoch 1")
      lines_a
  with
  | Some l ->
    Alcotest.(check bool) "epoch 1 folded both live updates" true
      (String.length l > 9
      && String.sub l (String.length l - 9) 9 = "applied=2")
  | None -> Alcotest.fail "no epoch 1 report line"

let test_engine_kill_under_load_resumes_byte_identical () =
  let plan = plan () in
  (* Reference: uninterrupted run, fault-free schedule. *)
  let reference =
    with_tmp_root (fun store intake ->
        let engine =
          must_create
            (Engine.create ~store ~intake plan ~market
               ~schedule:Fault.none)
        in
        ignore (drive engine client_script);
        Engine.close engine;
        store_bytes store)
  in
  (* Crash leg: same requests, injected crash at epoch 5 pre_settle
     kills the daemon mid-EPOCH; a fresh engine resumes the same store
     and the surviving client re-drives the rest. *)
  with_tmp_root (fun store intake ->
      let schedule = crash_schedule plan ~at_epoch:5 ~phase:Fault.Pre_settle in
      let engine =
        must_create (Engine.create ~store ~intake plan ~market ~schedule)
      in
      (match
         List.iter
           (fun line -> ignore (Engine.handle engine (req line)))
           client_script
       with
      | () -> Alcotest.fail "crash fault never fired"
      | exception Supervisor.Injected_crash _ -> ());
      (* The restart leg runs without the crash spec, exactly like
         [serve --resume] after a kill. *)
      let resumed =
        must_create
          (Engine.create ~resume:true ~store ~intake plan ~market
             ~schedule:Fault.none)
      in
      ignore (drive resumed [ "STATUS"; "EPOCH 10" ]);
      Engine.close resumed;
      Alcotest.(check bool) "resumed run completes" true (completed store);
      Alcotest.(check bool)
        "store is byte-identical to the uninterrupted run" true
        (store_bytes store = reference))

let test_engine_refuses_after_horizon () =
  let plan = plan () in
  with_tmp_root (fun store intake ->
      let engine =
        must_create
          (Engine.create ~store ~intake plan ~market
             ~schedule:Fault.none)
      in
      ignore (drive engine [ "EPOCH 10" ]);
      (match Engine.handle engine (req "BID 9 0 1.01") with
      | [ line ] ->
        Alcotest.(check bool) "bids after the horizon answer ERR" true
          (String.length line >= 3 && String.sub line 0 3 = "ERR")
      | _ -> Alcotest.fail "unexpected response shape");
      Engine.close engine;
      Alcotest.(check bool) "closing after the horizon completes the journal"
        true (completed store))

(* Closed before its horizon, a run stays resumable: the store has no
   completion record, and a resume comes back at the epoch after the
   last snapshot (every 4th) and finishes the horizon. *)
let test_engine_close_mid_horizon_resumes () =
  let plan = plan () in
  with_tmp_root (fun store intake ->
      let open_engine ~resume =
        must_create
          (Engine.create ~resume ~store ~intake plan ~market
             ~schedule:Fault.none)
      in
      let engine = open_engine ~resume:false in
      ignore (drive engine [ "BID 1 0 1.07 2"; "EPOCH 4" ]);
      Engine.close engine;
      Alcotest.(check bool) "no completion record" false (completed store);
      let resumed = open_engine ~resume:true in
      Alcotest.(check (option int)) "resumes after the snapshot" (Some 5)
        (Engine.next_epoch resumed);
      ignore (drive resumed [ "EPOCH 10" ]);
      Engine.close resumed;
      Alcotest.(check bool) "the resumed run completes" true (completed store))

(* --- Intake: fsync-before-OK retry under deterministic faults --- *)

(* A disk whose channels can be made to fail on flush: an out_channel
   over a read-only fd buffers writes silently and raises [Sys_error]
   at the first flush — exactly how a lying fsync or a dying device
   surfaces on the fsync-before-OK path. *)
let broken_channel () =
  Unix.out_channel_of_descr (Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)

let flaky_disk ~fail_first_opens =
  let opens = ref 0 in
  let pick real path =
    incr opens;
    if !opens <= fail_first_opens then broken_channel () else real path
  in
  Poc_resilience.Disk.with_ops
    {
      Poc_resilience.Disk.real_ops with
      open_append = pick Poc_resilience.Disk.real_ops.open_append;
      open_trunc = pick Poc_resilience.Disk.real_ops.open_trunc;
    }

let test_intake_append_retries_transient_fault () =
  with_tmp_root (fun _store intake_path ->
      let retries = ref [] in
      let slept = ref [] in
      let policy =
        { Disk.default_retry_policy with Disk.retry_attempts = 3; retry_seed = 5 }
      in
      (* The very first channel (create's open_trunc) is broken: the
         first append buffers fine, then the flush raises.  [heal]
         reopens — a real channel this time — and the retry lands. *)
      let log =
        Intake.create ~disk:(flaky_disk ~fail_first_opens:1) ~retry:policy
          ~sleep:(fun d -> slept := d :: !slept)
          ~on_retry:(fun ~attempt ~delay msg ->
            retries := (attempt, delay, msg) :: !retries)
          intake_path
      in
      let r = { Intake.entry = bid_entry 1 ~apply_epoch:1 ~bp:0 ~factor:1.5;
                displaces = None } in
      Intake.append log r;
      Intake.close log;
      Alcotest.(check int) "exactly one retry healed the fault" 1
        (List.length !retries);
      (* The retry rode the policy's deterministic jittered schedule —
         the same delays [Disk.retrying] would sleep. *)
      let expected = Disk.retry_delays policy in
      (match (!retries, !slept) with
      | [ (1, d, _) ], [ s ] ->
        Alcotest.(check (float 1e-9)) "first schedule delay" (List.hd expected) d;
        Alcotest.(check (float 1e-9)) "slept that delay" d s
      | _ -> Alcotest.fail "unexpected retry/sleep shape");
      (* The record is durable: a clean reopen replays it. *)
      match Intake.reopen intake_path with
      | Ok (log, [ r' ]) ->
        Intake.close log;
        Alcotest.(check bool) "record survived the fault" true (r = r')
      | Ok (_, rs) ->
        Alcotest.failf "expected 1 record, got %d" (List.length rs)
      | Error msg -> Alcotest.failf "reopen failed: %s" msg)

let test_intake_append_exhausts_on_persistent_fault () =
  with_tmp_root (fun _store intake_path ->
      let retries = ref 0 in
      let policy =
        { Disk.default_retry_policy with Disk.retry_attempts = 2 }
      in
      (* Every channel this disk hands out is broken: the schedule
         exhausts and the append re-raises — but only after [heal]
         restored the log to its last durable length (here: empty). *)
      let log =
        Intake.create ~disk:(flaky_disk ~fail_first_opens:max_int)
          ~retry:policy
          ~sleep:(fun _ -> ())
          ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retries)
          intake_path
      in
      let r = { Intake.entry = bid_entry 1 ~apply_epoch:1 ~bp:0 ~factor:1.5;
                displaces = None } in
      (match Intake.append log r with
      | () -> Alcotest.fail "append must raise once the schedule exhausts"
      | exception Sys_error _ -> ());
      Alcotest.(check int) "every scheduled retry was attempted" 2 !retries;
      Intake.close log;
      (* No torn frame mid-log: whatever exists replays cleanly empty. *)
      match Intake.reopen intake_path with
      | Ok (log, []) -> Intake.close log
      | Ok (_, _ :: _) -> Alcotest.fail "phantom records after exhaustion"
      | Error msg -> Alcotest.failf "reopen after exhaustion failed: %s" msg)

(* --- Protocol: run-addressed commands --- *)

let cmd line =
  match Protocol.parse_command line with
  | Ok c -> c
  | Error msg -> Alcotest.failf "bad test command %S: %s" line msg

let test_command_parse_and_roundtrip () =
  (* A bare request is run 0; RUN <id> prefixes any request; the
     registry verbs parse to their own constructors. *)
  (match cmd "STATUS" with
  | Protocol.Scoped { run = 0; req = Protocol.Status } -> ()
  | _ -> Alcotest.fail "bare request must scope to run 0");
  (match cmd "RUN 3 BID 1 0 1.07 2" with
  | Protocol.Scoped { run = 3; req = Protocol.Bid { seq = 1; _ } } -> ()
  | _ -> Alcotest.fail "RUN prefix must scope the request");
  (match cmd "OPEN" with
  | Protocol.Open_run { run = None; epochs = None; seed = None } -> ()
  | _ -> Alcotest.fail "bare OPEN");
  (match cmd "OPEN 12 99" with
  | Protocol.Open_run { run = None; epochs = Some 12; seed = Some 99 } -> ()
  | _ -> Alcotest.fail "OPEN epochs seed");
  (match cmd "RUN 5 OPEN 8" with
  | Protocol.Open_run { run = Some 5; epochs = Some 8; seed = None } -> ()
  | _ -> Alcotest.fail "RUN id OPEN epochs");
  (match cmd "CLOSE 2" with
  | Protocol.Close_run { run = 2 } -> ()
  | _ -> Alcotest.fail "CLOSE id");
  (match cmd "RUNS" with
  | Protocol.List_runs -> ()
  | _ -> Alcotest.fail "RUNS");
  (* Round-trip law: parse . render = id on every command shape. *)
  List.iter
    (fun c ->
      match Protocol.parse_command (Protocol.render_command c) with
      | Ok c' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trips %S" (Protocol.render_command c))
          true (c = c')
      | Error msg -> Alcotest.failf "re-parse failed: %s" msg)
    [
      Protocol.Scoped { run = 0; req = Protocol.Status };
      Protocol.Scoped { run = 7; req = Protocol.Epoch 2 };
      Protocol.Scoped
        { run = 1;
          req = Protocol.Bid { seq = 4; bp = 2; factor = 1.05; priority = 1 } };
      Protocol.Open_run { run = None; epochs = None; seed = None };
      Protocol.Open_run { run = Some 3; epochs = Some 9; seed = Some 41 };
      Protocol.Close_run { run = 6 };
      Protocol.List_runs;
    ];
  (* Rejections: malformed ids, OPEN arity, RUNS arguments. *)
  List.iter
    (fun line ->
      match Protocol.parse_command line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "RUN"; "RUN 2"; "RUN x STATUS"; "RUN -1 STATUS"; "OPEN 1 2 3"; "CLOSE";
      "CLOSE 1 2"; "RUNS please";
    ]

(* --- Framing: the binary protocol --- *)

module Framing = Poc_daemon.Framing

let all_msgs =
  [
    Framing.Open { run = None; epochs = None; seed = None };
    Framing.Open { run = Some 2; epochs = Some 9; seed = Some 41 };
    Framing.Bid { run = 1; seq = 7; bp = 3; factor = 1.0625; priority = 2 };
    Framing.Matrix { run = 0; seq = 9; factor = 0.97; priority = 1 };
    Framing.Epoch { run = 3; count = 4 };
    Framing.Status { run = 2 };
    Framing.Scrub { run = 0 };
    Framing.Close { run = 5 };
    Framing.Runs;
    Framing.Metrics;
    Framing.Quiesce;
    Framing.Shutdown;
  ]

let decode_all data =
  let { Framing.items; consumed; dropped } =
    Framing.decode_stream data ~pos:0
  in
  (items, consumed, dropped)

let test_framing_every_type_roundtrips () =
  List.iter
    (fun m ->
      let wire = Framing.encode_msg m in
      (match decode_all wire with
      | [ Framing.Msg m' ], consumed, 0 ->
        Alcotest.(check bool) "message round-trips" true (m = m');
        Alcotest.(check int) "fully consumed" (String.length wire) consumed
      | _ -> Alcotest.fail "unexpected decode shape");
      (* The command mapping is a bijection on messages. *)
      Alcotest.(check bool) "command mapping round-trips" true
        (Framing.of_command (Framing.to_command m) = m))
    all_msgs;
  (* Replies, including daemon-scope (-1) and continuation frames. *)
  List.iter
    (fun r ->
      let wire = Framing.encode_reply r in
      match decode_all wire with
      | [ Framing.Reply r' ], _, 0 ->
        Alcotest.(check bool) "reply round-trips" true (r = r')
      | _ -> Alcotest.fail "unexpected reply decode shape")
    [
      { Framing.run = 0; final = true; line = "OK 1" };
      { Framing.run = 4; final = false; line = "| epoch 3 settled" };
      { Framing.run = -1; final = true; line = "ERR parse: nope" };
      { Framing.run = 2; final = true; line = "" };
    ]

let qcheck_framing_roundtrip =
  let gen =
    QCheck.Gen.(
      let run = int_range 0 999 in
      oneof
        [
          map3
            (fun run (seq, bp) (factor, priority) ->
              Framing.Bid { run; seq; bp; factor; priority })
            run
            (pair (int_range 0 100_000) (int_range 0 64))
            (pair (float_range 0.5 2.0) (int_range 0 7));
          map3
            (fun run seq (factor, priority) ->
              Framing.Matrix { run; seq; factor; priority })
            run (int_range 0 100_000)
            (pair (float_range 0.5 2.0) (int_range 0 7));
          map2 (fun run count -> Framing.Epoch { run; count }) run
            (int_range 1 50);
          map3
            (fun run epochs seed ->
              Framing.Open
                {
                  run = (if run mod 2 = 0 then Some run else None);
                  epochs;
                  seed;
                })
            run
            (opt (int_range 1 100))
            (opt (int_range 0 1000));
          map (fun run -> Framing.Status { run }) run;
          map (fun run -> Framing.Scrub { run }) run;
          map (fun run -> Framing.Close { run }) run;
          oneofl [ Framing.Runs; Framing.Metrics; Framing.Quiesce;
                   Framing.Shutdown ];
        ])
  in
  QCheck.Test.make ~name:"framing: random messages round-trip bit-exactly"
    ~count:200
    (QCheck.make gen)
    (fun m ->
      (* [Open] renders seed without epochs unrepresentably in the line
         protocol, but the frame codec must still carry it. *)
      match decode_all (Framing.encode_msg m) with
      | [ Framing.Msg m' ], _, 0 -> m = m'
      | _ -> false)

let test_framing_rejects_every_truncation () =
  let wire =
    Framing.encode_msg
      (Framing.Bid { run = 2; seq = 11; bp = 1; factor = 1.125; priority = 3 })
  in
  for len = 0 to String.length wire - 1 do
    let items, consumed, dropped = decode_all (String.sub wire 0 len) in
    if items <> [] then
      Alcotest.failf "truncation at %d decoded a phantom message" len;
    if consumed <> 0 then
      Alcotest.failf "truncation at %d consumed %d bytes" len consumed;
    if dropped <> 0 then
      Alcotest.failf "truncation at %d dropped a frame still in flight" len
  done;
  (* The same bytes, completed, decode: a torn frame waits, never
     poisons. *)
  match decode_all wire with
  | [ Framing.Msg _ ], _, 0 -> ()
  | _ -> Alcotest.fail "completed frame must decode"

let test_framing_resyncs_after_corruption () =
  let a =
    Framing.encode_msg
      (Framing.Bid { run = 0; seq = 1; bp = 0; factor = 1.07; priority = 2 })
  in
  let b = Framing.encode_msg (Framing.Status { run = 1 }) in
  (* Flip a payload byte of [a]: its checksum fails, the decoder drops
     the frame and resyncs at [b]'s magic — one garbled frame costs
     that frame, not the connection. *)
  let corrupt = Bytes.of_string (a ^ b) in
  Bytes.set corrupt 9 (Char.chr (Char.code (Bytes.get corrupt 9) lxor 0x5A));
  (match decode_all (Bytes.to_string corrupt) with
  | [ Framing.Msg (Framing.Status { run = 1 }) ], consumed, dropped ->
    Alcotest.(check int) "resync consumed everything"
      (String.length a + String.length b)
      consumed;
    Alcotest.(check bool) "the corrupt frame was counted" true (dropped >= 1)
  | _ -> Alcotest.fail "corruption must cost one frame, not the stream");
  (* An absurd declared length (4 GiB) reads as corruption — not an
     allocation — and the decoder still finds the next frame. *)
  let huge = Bytes.of_string (a ^ b) in
  for i = 1 to 4 do Bytes.set huge i '\xFF' done;
  (match decode_all (Bytes.to_string huge) with
  | [ Framing.Msg (Framing.Status { run = 1 }) ], _, dropped ->
    Alcotest.(check bool) "oversized frame dropped" true (dropped >= 1)
  | _ -> Alcotest.fail "oversized length must not stall the stream");
  (* Inter-frame garbage (a line-protocol client gone astray) is
     skipped to the next magic byte. *)
  match decode_all ("STATUS\n" ^ b) with
  | [ Framing.Msg (Framing.Status { run = 1 }) ], _, dropped ->
    Alcotest.(check bool) "garbage counted" true (dropped >= 1)
  | _ -> Alcotest.fail "garbage prefix must not stall the stream"

(* --- QCheck: random burst schedules --- *)

(* One seeded client session: a burst of BID/MATRIX/EPOCH requests
   against a small queue, horizon 4.  Used three ways: (a) depth never
   exceeds the high-water mark and responses are deterministic given
   the seed; (b) a crash mid-burst plus resume reproduces the
   uninterrupted store byte for byte — accepted updates applied exactly
   once, shed decisions replayed, not re-made. *)
let burst_market = { Epochs.default_config with Epochs.epochs = 4; seed = 11 }

let burst_script seed =
  let rng = Prng.create seed in
  let n_reqs = 14 + Prng.int rng 10 in
  let seq = ref 0 in
  let reqs =
    List.init n_reqs (fun _ ->
        let d = Prng.int rng 10 in
        if d < 6 then begin
          incr seq;
          Printf.sprintf "BID %d %d %.4f %d" !seq (Prng.int rng 6)
            (0.9 +. (0.2 *. Prng.float rng))
            (Prng.int rng 4)
        end
        else if d < 7 then begin
          incr seq;
          Printf.sprintf "MATRIX %d %.4f %d" !seq
            (0.95 +. (0.1 *. Prng.float rng))
            (Prng.int rng 4)
        end
        else "EPOCH 1")
  in
  reqs @ [ "EPOCH 4" ]

let run_burst plan ~schedule ~crash_and_resume seed =
  with_tmp_root (fun store intake ->
      (* Checkpoint every epoch so a crash resumes at the epoch it
         interrupted: later requests then land at the same apply-epochs
         as in the uninterrupted run, making full-stream byte-identity
         a meaningful property. *)
      let mk ~resume ~schedule =
        must_create
          (Engine.create ~high_water:3 ~snapshot_every:1 ~resume ~store
             ~intake plan ~market:burst_market ~schedule)
      in
      let engine = ref (mk ~resume:false ~schedule) in
      let depth_ok = ref true in
      let responses = ref [] in
      let crashed = ref false in
      List.iter
        (fun line ->
          let send () =
            match Engine.handle !engine (req line) with
            | lines -> responses := List.rev_append lines !responses
            | exception Supervisor.Injected_crash _ ->
              crashed := true;
              (* The client survives the daemon: restart crash-free,
                 resume, and re-send the interrupted request. *)
              engine := mk ~resume:true ~schedule:Fault.none;
              let lines = Engine.handle !engine (req line) in
              responses := List.rev_append lines !responses
          in
          send ();
          if Engine.queue_depth !engine > 3 then depth_ok := false)
        (burst_script seed);
      Engine.close !engine;
      if crash_and_resume && not !crashed then
        QCheck.Test.fail_report "crash fault never fired";
      (List.rev !responses, store_bytes store, !depth_ok))

let qcheck_burst_bounded_deterministic_exactly_once =
  QCheck.Test.make ~name:"bursts: bounded queue, deterministic shed, \
                          exactly-once across crash+resume"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let plan = plan () in
      let resp_a, bytes_a, depth_a =
        run_burst plan ~schedule:Fault.none
          ~crash_and_resume:false seed
      in
      let resp_b, bytes_b, depth_b =
        run_burst plan ~schedule:Fault.none
          ~crash_and_resume:false seed
      in
      if not (depth_a && depth_b) then
        QCheck.Test.fail_report "queue exceeded its high-water mark";
      if resp_a <> resp_b then
        QCheck.Test.fail_report
          "same seed produced different responses (shed not deterministic)";
      if bytes_a <> bytes_b then
        QCheck.Test.fail_report "same seed produced different stores";
      let _, bytes_c, depth_c =
        run_burst plan
          ~schedule:
            (crash_schedule plan ~at_epoch:3 ~phase:Fault.Pre_settle)
          ~crash_and_resume:true seed
      in
      if not depth_c then
        QCheck.Test.fail_report "queue exceeded its bound across resume";
      if bytes_c <> bytes_a then
        QCheck.Test.fail_report
          "crash+resume store differs from uninterrupted run";
      true)

(* --- QCheck: an epoch applies what the old intake mirror selected --- *)

(* An engine disk whose intake-log appends fail on demand: [fail true]
   points the log's open descriptor at a read-only one, so the next
   flush raises [Sys_error], and reopening the log raises until
   [fail false], so every retry fails and the admission rolls back.
   The journal's files pass through untouched. *)
let failing_intake ~intake =
  let failing = ref false and live = ref None in
  let hook real path =
    if path <> intake then real path
    else if !failing then raise (Sys_error (path ^ ": injected intake fault"))
    else begin
      let oc = real path in
      live := Some (Unix.descr_of_out_channel oc);
      oc
    end
  in
  let ops =
    {
      Disk.real_ops with
      Disk.open_append = hook Disk.real_ops.Disk.open_append;
      open_trunc = hook Disk.real_ops.Disk.open_trunc;
    }
  in
  let fail on =
    failing := on;
    match !live with
    | Some fd when on ->
      let ro = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Unix.dup2 ro fd;
      Unix.close ro;
      live := None
    | _ -> ()
  in
  ((fun () -> Disk.with_ops ops), fail)

(* A seeded client session over a queue of 2-4: nine requests in ten
   are prioritized BIDs and MATRIXes, enough to shed and to answer
   BUSY, and two of those nine, and always the first, are sent while
   the intake disk fails ([`Fail]); the rest are EPOCHs of 1 or 2. *)
let mirror_script seed ~to_horizon =
  let rng = Prng.create seed in
  let seq = ref 0 in
  let update () =
    incr seq;
    if Prng.int rng 4 = 0 then
      Printf.sprintf "MATRIX %d %.4f %d" !seq
        (0.95 +. (0.1 *. Prng.float rng))
        (Prng.int rng 4)
    else
      Printf.sprintf "BID %d %d %.4f %d" !seq (Prng.int rng 6)
        (0.9 +. (0.2 *. Prng.float rng))
        (Prng.int rng 4)
  in
  let high_water = 2 + Prng.int rng 3 in
  let first = (`Fail, update ()) in
  let reqs =
    first
    :: List.init
         (12 + Prng.int rng 12)
         (fun _ ->
           match Prng.int rng 10 with
           | d when d < 7 -> (`Ok, update ())
           | 7 | 8 -> (`Fail, update ())
           | _ -> (`Ok, Printf.sprintf "EPOCH %d" (1 + Prng.int rng 2)))
  in
  (high_water, if to_horizon then reqs @ [ (`Ok, "EPOCH 4") ] else reqs)

(* The intake mirror the queue replaced, as a model over what the
   client was told: every acknowledged admission in seq order; an
   epoch applies those admitted for it that no later admission shed. *)
let mirror_updates ~acked ~shed e =
  List.sort compare acked
  |> List.filter_map (fun (seq, apply_epoch, line) ->
         if apply_epoch = e && not (List.mem seq shed) then
           match req line with
           | Protocol.Bid { bp; factor; _ } ->
             Some (Supervisor.Scale_bid { bp; factor })
           | Protocol.Matrix { factor; _ } ->
             Some (Supervisor.Scale_demand { factor })
           | _ -> None
         else None)

(* [OK <seq> apply_epoch=<e> queue=<q> [shed=<s>]] *)
let acknowledged line =
  let value tok = int_of_string (List.nth (String.split_on_char '=' tok) 1) in
  match String.split_on_char ' ' line with
  | [ "OK"; seq; apply; _queue ] -> Some (int_of_string seq, value apply, None)
  | [ "OK"; seq; apply; _queue; shed ] ->
    Some (int_of_string seq, value apply, Some (value shed))
  | _ -> None

let run_against_mirror plan ~crash seed =
  let schedule =
    if crash then crash_schedule plan ~at_epoch:3 ~phase:Fault.Pre_settle
    else Fault.none
  in
  let high_water, script =
    mirror_script seed ~to_horizon:(crash || seed mod 2 = 0)
  in
  with_tmp_root (fun store intake ->
      let disk, fail = failing_intake ~intake in
      let mk ~resume ~schedule =
        must_create
          (Engine.create ~high_water ~snapshot_every:1 ~disk:(disk ()) ~resume
             ~store ~intake plan ~market:burst_market ~schedule)
      in
      let engine = ref (mk ~resume:false ~schedule) in
      let acked = ref [] and shed = ref [] and crashed = ref false in
      List.iter
        (fun (mode, line) ->
          fail (mode = `Fail);
          let lines =
            match Engine.handle !engine (req line) with
            | lines -> lines
            | exception Supervisor.Injected_crash _ ->
              crashed := true;
              engine := mk ~resume:true ~schedule:Fault.none;
              Engine.handle !engine (req line)
          in
          fail false;
          List.iter
            (fun l ->
              match acknowledged l with
              | Some (seq, apply_epoch, victim) ->
                acked := (seq, apply_epoch, line) :: !acked;
                Option.iter (fun v -> shed := v :: !shed) victim
              | None -> ())
            lines)
        script;
      if crash && not !crashed then
        QCheck.Test.fail_report "crash fault never fired";
      let epochs =
        match Engine.next_epoch !engine with
        | Some e -> e - 1
        | None -> burst_market.Epochs.epochs
      in
      Engine.close !engine;
      let reference =
        with_tmp_root (fun ref_store _ ->
            let loop =
              Supervisor.open_run ~journal:ref_store ~snapshot_every:1 plan
                ~market:burst_market ~schedule:Fault.none
            in
            for e = 1 to epochs do
              ignore
                (Supervisor.step
                   ~updates:(mirror_updates ~acked:!acked ~shed:!shed e)
                   loop)
            done;
            ignore (Supervisor.close loop : Supervisor.report);
            store_bytes ref_store)
      in
      store_bytes store = reference)

let qcheck_epochs_apply_the_mirror =
  QCheck.Test.make
    ~name:"epochs apply exactly the acknowledged unshed updates, across \
           shed, BUSY, failed appends and crash+resume"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let plan = plan () in
      if not (run_against_mirror plan ~crash:false seed) then
        QCheck.Test.fail_report "store differs from the mirror's loop";
      if not (run_against_mirror plan ~crash:true seed) then
        QCheck.Test.fail_report
          "crash+resume store differs from the mirror's loop";
      true)

let suite =
  [
    Alcotest.test_case "protocol round-trips" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects garbage" `Quick
      test_protocol_rejects_garbage;
    Alcotest.test_case "protocol response framing" `Quick
      test_protocol_framing;
    Alcotest.test_case "admission bounds the queue, escalates retry-after"
      `Quick test_admission_bounds_and_backpressure;
    Alcotest.test_case "admission sheds lowest-priority oldest" `Quick
      test_admission_sheds_lowest_priority_oldest;
    Alcotest.test_case "admission dedups and drains in order" `Quick
      test_admission_dedup_and_drain;
    Alcotest.test_case "intake round-trips and truncates torn tails" `Quick
      test_intake_roundtrip_and_torn_tail;
    Alcotest.test_case "intake reopens a missing file as empty" `Quick
      test_intake_missing_file_is_empty;
    Alcotest.test_case "intake append retries a transient fault" `Quick
      test_intake_append_retries_transient_fault;
    Alcotest.test_case "intake append exhausts on a persistent fault" `Quick
      test_intake_append_exhausts_on_persistent_fault;
    Alcotest.test_case "commands parse, scope and round-trip" `Quick
      test_command_parse_and_roundtrip;
    Alcotest.test_case "framing round-trips every frame type" `Quick
      test_framing_every_type_roundtrips;
    QCheck_alcotest.to_alcotest qcheck_framing_roundtrip;
    Alcotest.test_case "framing rejects every truncation" `Quick
      test_framing_rejects_every_truncation;
    Alcotest.test_case "framing resyncs after corruption" `Quick
      test_framing_resyncs_after_corruption;
    Alcotest.test_case "engine completes deterministically" `Slow
      test_engine_completes_and_is_deterministic;
    Alcotest.test_case "kill under load resumes byte-identical" `Slow
      test_engine_kill_under_load_resumes_byte_identical;
    Alcotest.test_case "engine refuses bids after the horizon" `Slow
      test_engine_refuses_after_horizon;
    Alcotest.test_case "engine closed mid-horizon stays resumable" `Slow
      test_engine_close_mid_horizon_resumes;
    QCheck_alcotest.to_alcotest qcheck_burst_bounded_deterministic_exactly_once;
    QCheck_alcotest.to_alcotest qcheck_epochs_apply_the_mirror;
  ]
