(* Resilience layer: fault DSL, degradation ladder, supervised loop. *)

module Acceptability = Poc_auction.Acceptability
module Vcg = Poc_auction.Vcg
module Epochs = Poc_market.Epochs
module Settlement = Poc_core.Settlement
module Planner = Poc_core.Planner
module Fault = Poc_resilience.Fault
module Ladder = Poc_resilience.Ladder
module Supervisor = Poc_resilience.Supervisor
module Journal = Poc_resilience.Journal
module Forensics = Poc_forensics.Forensics
module Codec = Poc_util.Codec

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let plan () = Lazy.force Fixtures.small_plan

let chaos_specs (plan : Planner.plan) =
  let wan = plan.Planner.wan in
  let biggest =
    match Poc_topology.Wan.bps_by_size wan with b :: _ -> b | [] -> 0
  in
  let n_bps = Array.length wan.Poc_topology.Wan.bps in
  [
    Fault.Bp_bankruptcy { at_epoch = 3; bp = biggest };
    Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 };
  ]
  @ List.init n_bps (fun bp ->
        Fault.Capacity_recall { at_epoch = 5; bp; fraction = 1.0; duration = 1 })

let compile_chaos plan =
  match Fault.compile plan.Planner.wan ~seed:2020 (chaos_specs plan) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "chaos schedule failed to compile: %s" msg

let market = { Epochs.default_config with Epochs.epochs = 8; seed = 7 }

(* --- Fault DSL --- *)

let test_fault_validation_lists_every_problem () =
  let plan = plan () in
  let specs =
    [
      Fault.Link_failure { at_epoch = 0; count = 0; duration = 1 };
      Fault.Bp_bankruptcy { at_epoch = 1; bp = 99 };
      Fault.Capacity_recall { at_epoch = 1; bp = 0; fraction = 1.5; duration = 1 };
    ]
  in
  match Fault.validate plan.Planner.wan specs with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %S" needle)
          true (contains msg needle))
      [
        "spec 0: at_epoch must be >= 1";
        "spec 0: count must be >= 1";
        "spec 1: unknown BP 99";
        "spec 2: fraction must be in [0,1]";
      ]

let test_fault_compile_is_deterministic () =
  let plan = plan () in
  let specs = chaos_specs plan in
  let run () =
    match Fault.compile plan.Planner.wan ~seed:2020 specs with
    | Ok s -> Fault.events s
    | Error msg -> Alcotest.failf "compile failed: %s" msg
  in
  Alcotest.(check bool) "identical timelines" true (run () = run ())

let test_fault_failure_emits_repair () =
  let plan = plan () in
  let specs = [ Fault.Link_failure { at_epoch = 2; count = 3; duration = 2 } ] in
  match Fault.compile plan.Planner.wan ~seed:5 specs with
  | Error msg -> Alcotest.failf "compile failed: %s" msg
  | Ok s ->
    let downs =
      Fault.at s 2
      |> List.filter_map (function Fault.Link_down id -> Some id | _ -> None)
    in
    let ups =
      Fault.at s 4
      |> List.filter_map (function Fault.Link_up id -> Some id | _ -> None)
    in
    Alcotest.(check int) "three links fail" 3 (List.length downs);
    Alcotest.(check (list int)) "same links repair after the duration" downs ups

(* --- Ladder --- *)

let test_ladder_rung_order () =
  let relax =
    [ Ladder.Relax_demand 0.9; Ladder.Relax_demand 0.75; Ladder.Relax_demand 0.5 ]
  in
  let fallbacks = [ Ladder.Connectivity_only; Ladder.External_transit ] in
  List.iter
    (fun (rule, step_downs) ->
      Alcotest.(check bool)
        (Acceptability.name rule ^ ": relax, then step down, then fallbacks")
        true
        (Ladder.rungs ~rule
        = relax @ List.map (fun r -> Ladder.Step_down r) step_downs @ fallbacks))
    [
      (Acceptability.Handle_load, []);
      (Acceptability.Single_link_failure, [ Acceptability.Handle_load ]);
      ( Acceptability.Per_pair_failure,
        [ Acceptability.Single_link_failure; Acceptability.Handle_load ] );
    ]

(* --- Journal digest --- *)

(* Every existing store carries its run's digest in each segment
   header, and resume refuses a mismatch: a change to the digest's
   bytes strands them all.  The value is the one stores written so far
   hold for this run. *)
let test_journal_digest_pinned () =
  let config =
    Planner.scaled_config ~sites:8 ~bps:3
      { Planner.default_config with Planner.seed = 7 }
  in
  match Planner.build config with
  | Error msg -> Alcotest.failf "plan failed: %s" msg
  | Ok plan -> (
    match
      Fault.compile plan.Planner.wan ~seed:5
        [ Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 } ]
    with
    | Error msg -> Alcotest.failf "schedule failed: %s" msg
    | Ok schedule ->
      let market = { Epochs.default_config with Epochs.epochs = 6; seed = 11 } in
      Alcotest.(check int64) "digest" 1985217042L
        (Journal.digest ~market schedule))

(* --- Supervisor --- *)

let chaos_report plan = Supervisor.run plan ~market ~schedule:(compile_chaos plan)

let test_chaos_run_degrades_and_recovers () =
  let plan = plan () in
  let report = chaos_report plan in
  Alcotest.(check int) "all epochs reported" market.Epochs.epochs
    (List.length report.Supervisor.epochs);
  Alcotest.(check bool) "ladder engaged at least once" true
    (report.Supervisor.ladder_activations >= 1);
  let degraded =
    List.filter
      (fun (er : Supervisor.epoch_report) ->
        er.Supervisor.status <> Supervisor.Healthy)
      report.Supervisor.epochs
  in
  Alcotest.(check bool) "at least one degraded epoch" true (degraded <> []);
  List.iter
    (fun (er : Supervisor.epoch_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d delivered some traffic" er.Supervisor.epoch)
        true
        (er.Supervisor.delivered_fraction > 0.0))
    report.Supervisor.epochs;
  let recovered =
    List.exists
      (fun (i : Supervisor.incident) ->
        match Supervisor.epochs_to_recovery i with
        | Some n -> n >= 1
        | None -> false)
      report.Supervisor.incidents
  in
  Alcotest.(check bool) "some incident reports epochs-to-recovery >= 1" true
    recovered

let test_chaos_invariants_hold () =
  let plan = plan () in
  let report = chaos_report plan in
  Alcotest.(check int) "no invariant violations" 0
    (List.length report.Supervisor.violations);
  match report.Supervisor.final_plan with
  | None -> Alcotest.fail "expected a final plan"
  | Some final ->
    let ledger = Settlement.of_plan final () in
    Alcotest.(check bool) "closing ledger nets to zero" true
      (Float.abs (Settlement.conservation ledger) < 1e-6)

let test_incident_log_is_byte_identical () =
  let plan = plan () in
  let render () =
    let report = chaos_report plan in
    Supervisor.render_incidents report ^ Supervisor.render_epochs report
  in
  Alcotest.(check string) "same seed + schedule, same bytes" (render ())
    (render ())

(* What the plain market computes for [market] on the fixture plan,
   pinned when it still had a loop of its own: per epoch, spend and
   $/Gbps ([%h]), |SL| and recalled links.  The second market adds a
   recalling and a marking-up BP, whose draws share the cost drift's
   PRNG stream. *)
let pinned_market =
  [
    (1, 0x1.a1c6309127008p+21, 0x1.2a83a54d4be73p+13, 25, 0);
    (2, 0x1.a730a2de0badcp+21, 0x1.287475ff4e922p+13, 25, 0);
    (3, 0x1.a74eb3c93e06p+21, 0x1.22b905c2ff93cp+13, 27, 0);
    (4, 0x1.a77b75cb8a49p+21, 0x1.1d23d8445c0abp+13, 27, 0);
    (5, 0x1.a7168b642f7efp+21, 0x1.1749eff333e0cp+13, 27, 0);
    (6, 0x1.a75aafb1e7679p+21, 0x1.11fc1de2073dap+13, 27, 0);
    (7, 0x1.9fa0bdc2ddd9ap+21, 0x1.07b5d73c2feadp+13, 27, 0);
    (8, 0x1.9c6a31e2dd9a2p+21, 0x1.008a74fd6303fp+13, 28, 0);
  ]

let pinned_strategic_market =
  [
    (1, 0x1.abdd1c59b7d4dp+21, 0x1.31b93ba568ef3p+13, 26, 6);
    (2, 0x1.ae3a472ae7f15p+21, 0x1.2d628e167996p+13, 26, 5);
    (3, 0x1.adcc7c4e9d25dp+21, 0x1.272e51014db38p+13, 26, 8);
    (4, 0x1.a6f80b580e7e6p+21, 0x1.1ccb5c0ea6bb1p+13, 26, 5);
    (5, 0x1.c14aada75ca84p+21, 0x1.28961c02b72b4p+13, 27, 11);
    (6, 0x1.ac92d29131f84p+21, 0x1.155cd5196db81p+13, 26, 6);
    (7, 0x1.9c17147328373p+21, 0x1.057735f64bb8dp+13, 25, 8);
    (8, 0x1.993c4da943f42p+21, 0x1.fd205bcfed1a3p+12, 26, 11);
  ]

let test_faultfree_run_repeats_pinned_market () =
  let plan = plan () in
  let check what market pinned =
    let report = Supervisor.run plan ~market ~schedule:Fault.none in
    Alcotest.(check int)
      (what ^ ": one report per epoch")
      (List.length pinned)
      (List.length report.Supervisor.epochs);
    List.iter2
      (fun (er : Supervisor.epoch_report) (epoch, spend, price, selected, recalled) ->
        let claim c = Printf.sprintf "%s epoch %d: %s" what epoch c in
        Alcotest.(check int) (claim "numbered") epoch er.Supervisor.epoch;
        Alcotest.(check bool) (claim "healthy") true
          (er.Supervisor.status = Supervisor.Healthy);
        Alcotest.(check (float 0.0)) (claim "spend") spend er.Supervisor.spend;
        Alcotest.(check (float 0.0)) (claim "price") price
          er.Supervisor.price_per_gbps;
        Alcotest.(check int) (claim "selected links") selected
          er.Supervisor.selected_links;
        Alcotest.(check int) (claim "recalled links") recalled
          er.Supervisor.recalled_links)
      report.Supervisor.epochs pinned;
    Alcotest.(check int) (what ^ ": no incidents without faults") 0
      (List.length report.Supervisor.incidents)
  in
  check "plain" market pinned_market;
  check "strategic"
    {
      market with
      Epochs.strategies =
        [ (0, Epochs.Recallable 0.3); (1, Epochs.Markup 0.25) ];
    }
    pinned_strategic_market

let test_total_blackout_reports_never () =
  let plan = plan () in
  (* External transit is the designed backstop, so a true blackout
     needs it gone too: bankrupt every BP and strip the virtual links
     from the problem (and from the seed selection the supervisor
     would otherwise carry forward). *)
  let n_bps = Array.length plan.Planner.wan.Poc_topology.Wan.bps in
  let specs =
    List.init n_bps (fun bp -> Fault.Bp_bankruptcy { at_epoch = 1; bp })
  in
  let schedule =
    match Fault.compile plan.Planner.wan ~seed:3 specs with
    | Ok s -> s
    | Error msg -> Alcotest.failf "compile failed: %s" msg
  in
  let is_virtual id =
    List.mem_assoc id plan.Planner.problem.Vcg.virtual_prices
  in
  let problem = { plan.Planner.problem with Vcg.virtual_prices = [] } in
  let selected =
    List.filter
      (fun id -> not (is_virtual id))
      plan.Planner.outcome.Vcg.selection.Vcg.selected
  in
  let selection =
    { Vcg.selected; cost = Vcg.selection_cost problem selected }
  in
  let outcome = { plan.Planner.outcome with Vcg.selection = selection } in
  let plan = { plan with Planner.problem = problem; outcome } in
  let report = Supervisor.run plan ~market ~schedule in
  List.iter
    (fun (er : Supervisor.epoch_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d blacked out" er.Supervisor.epoch)
        true
        (er.Supervisor.status = Supervisor.Blackout))
    report.Supervisor.epochs;
  match report.Supervisor.incidents with
  | [ inc ] ->
    Alcotest.(check bool) "no recovery" true
      (Supervisor.epochs_to_recovery inc = None)
  | incs -> Alcotest.failf "expected one open incident, got %d" (List.length incs)

(* --- Fault properties (QCheck) --- *)

let qcheck_fault_compile_seed_determinism =
  QCheck.Test.make ~name:"same seed compiles byte-identical fault timelines"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let plan = plan () in
      let specs = chaos_specs plan in
      let events s =
        match Fault.compile plan.Planner.wan ~seed:s specs with
        | Ok sched -> Fault.events sched
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      events seed = events seed)

let qcheck_fault_compile_seed_sensitivity =
  QCheck.Test.make ~name:"distinct seeds pick different fault victims"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let plan = plan () in
      (* A spec with real randomness: which links fail is drawn from
         the seed.  Over 16 link picks, two seeds agreeing everywhere
         would be a broken PRNG. *)
      let specs =
        [ Fault.Link_failure { at_epoch = 2; count = 16; duration = 1 } ]
      in
      let events s =
        match Fault.compile plan.Planner.wan ~seed:s specs with
        | Ok sched -> Fault.events sched
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      events seed <> events (seed + 1))

let test_fault_validation_rejects_crash_epoch () =
  let plan = plan () in
  let specs =
    [
      Fault.Crash { at_epoch = 0; phase = Fault.Pre_settle };
      Fault.Traffic_surge { at_epoch = 1; factor = -2.0; duration = 0 };
      Fault.Offer_shrinkage { at_epoch = 1; fraction = 2.0 };
    ]
  in
  match Fault.validate plan.Planner.wan specs with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %S" needle)
          true (contains msg needle))
      [ "spec 0: at_epoch must be >= 1"; "spec 1"; "spec 2" ]

(* --- pay-as-bid carry-forward edge cases --- *)

let test_pay_as_bid_empty_selection () =
  let plan = plan () in
  Alcotest.(check bool) "nothing to carry forward" true
    (Ladder.pay_as_bid plan.Planner.problem [] = None)

let test_pay_as_bid_external_transit_selection () =
  (* The selection a prior External_transit epoch leaves behind:
     virtual links only.  Carrying it forward must price it at the
     contracted virtual prices with no BP payments. *)
  let plan = plan () in
  let problem = plan.Planner.problem in
  let links = List.map fst problem.Vcg.virtual_prices |> List.sort compare in
  if links = [] then Alcotest.fail "fixture has no virtual links"
  else
    match Ladder.pay_as_bid problem links with
    | None -> Alcotest.fail "virtual-only carry-forward must price"
    | Some o ->
      let expected =
        List.fold_left (fun acc (_, p) -> acc +. p) 0.0 problem.Vcg.virtual_prices
      in
      Alcotest.(check (float 1e-6)) "pays the contracted virtual prices"
        expected o.Vcg.total_payment;
      Alcotest.(check bool) "no BP is paid" true
        (Array.for_all
           (fun (r : Vcg.bp_result) -> r.Vcg.payment = 0.0)
           o.Vcg.bp_results)

let test_pay_as_bid_surviving_subset () =
  (* The Connectivity_only-style carry: a prior selection survives with
     one BP's links banned; the rest reprices pay-as-bid. *)
  let plan = plan () in
  let problem = plan.Planner.problem in
  let full = plan.Planner.outcome.Vcg.selection.Vcg.selected in
  let banned_bp_links =
    Poc_topology.Wan.bp_link_ids plan.Planner.wan 0
  in
  let surviving =
    List.filter (fun id -> not (List.mem id banned_bp_links)) full
  in
  if surviving = [] || surviving = full then
    Alcotest.fail "fixture selection does not exercise a strict subset"
  else
    match Ladder.pay_as_bid problem surviving with
    | None -> Alcotest.fail "surviving subset must still price"
    | Some o ->
      Alcotest.(check (list int)) "prices exactly the surviving links"
        (List.sort compare surviving)
        (List.sort compare o.Vcg.selection.Vcg.selected);
      Alcotest.(check bool) "banned BP earns nothing" true
        (o.Vcg.bp_results.(0).Vcg.payment = 0.0)

(* --- Journal: crash injection, resume, torn-tail recovery --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_tmp_store f =
  (* A fresh directory path for a journal store.  Journal.create
     mkdirs it; clean up everything including the quarantine subdir. *)
  let path = Filename.temp_file "poc_segstore" "" in
  Sys.remove path;
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
  in
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* Every file in the store (including quarantine/), name -> bytes, for
   byte-identity checks between stores. *)
let store_fingerprint dir =
  let rec files prefix d =
    Array.to_list (Sys.readdir d)
    |> List.concat_map (fun name ->
           let p = Filename.concat d name in
           let rel = if prefix = "" then name else prefix ^ "/" ^ name in
           if Sys.is_directory p then files rel p else [ (rel, read_file p) ])
  in
  List.sort compare (files "" dir)

(* Without a segment budget the store never rotates: the whole run is
   in its first segment. *)
let first_segment dir = Filename.concat dir "00001.seg"

let render (r : Supervisor.report) =
  Supervisor.render_epochs r ^ Supervisor.render_incidents r

let check_crash_resume ~at_epoch phase () =
  let plan = plan () in
  let uninterrupted =
    Supervisor.run plan ~market ~schedule:(compile_chaos plan)
  in
  let crashing =
    match
      Fault.compile plan.Planner.wan ~seed:2020
        (chaos_specs plan @ [ Fault.Crash { at_epoch; phase } ])
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "crash schedule failed to compile: %s" msg
  in
  with_tmp_store (fun path ->
      (match Supervisor.run plan ~journal:path ~market ~schedule:crashing with
      | _ -> Alcotest.fail "expected an injected crash"
      | exception Supervisor.Injected_crash { epoch; phase = p } ->
        Alcotest.(check int) "crashed at the right epoch" at_epoch epoch;
        Alcotest.(check bool) "crashed in the right phase" true (p = phase));
      (* Resume under the schedule *without* the crash spec: the digest
         ignores crash points, so both forms are accepted. *)
      match
        Supervisor.resume ~journal:path plan ~market
          ~schedule:(compile_chaos plan)
      with
      | Error msg -> Alcotest.failf "resume failed: %s" msg
      | Ok resumed ->
        Alcotest.(check string) "rendered output byte-identical"
          (render uninterrupted) (render resumed);
        Alcotest.(check bool) "epoch reports structurally identical" true
          (compare resumed.Supervisor.epochs uninterrupted.Supervisor.epochs = 0);
        Alcotest.(check bool) "violations identical" true
          (compare resumed.Supervisor.violations
             uninterrupted.Supervisor.violations
          = 0);
        Alcotest.(check int) "ladder activations identical"
          uninterrupted.Supervisor.ladder_activations
          resumed.Supervisor.ladder_activations)

let test_crash_resume_pre_auction = check_crash_resume ~at_epoch:5 Fault.Pre_auction
let test_crash_resume_pre_settle = check_crash_resume ~at_epoch:5 Fault.Pre_settle
let test_crash_resume_post_settle = check_crash_resume ~at_epoch:5 Fault.Post_settle

let test_crash_resume_before_first_snapshot =
  (* Epoch 2 is before the first snapshot (cadence 4): resume must
     rebuild from the initial state, not from a snapshot. *)
  check_crash_resume ~at_epoch:2 Fault.Post_settle

(* The process survives an injected crash in the fleet's kill chain and
   the daemon's registry, so the crashed epoch's spans must not stay open
   and become the parents of later epochs. *)
let test_crash_closes_spans () =
  let module Trace = Poc_obs.Trace in
  let plan = plan () in
  List.iter
    (fun phase ->
      let schedule =
        match
          Fault.compile plan.Planner.wan ~seed:2020
            (chaos_specs plan @ [ Fault.Crash { at_epoch = 3; phase } ])
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "crash schedule failed to compile: %s" msg
      in
      let ring = Trace.Ring.create () in
      Trace.set_sink (Some (Trace.Ring.sink ring));
      Fun.protect
        ~finally:(fun () -> Trace.set_sink None)
        (fun () ->
          with_tmp_store (fun path ->
              match Supervisor.run plan ~journal:path ~market ~schedule with
              | _ -> Alcotest.fail "expected an injected crash"
              | exception Supervisor.Injected_crash _ ->
                let what = Fault.phase_to_string phase in
                Alcotest.(check int) (what ^ ": no span left open") 0
                  (Trace.open_spans ());
                Alcotest.(check int) (what ^ ": every epoch span emitted") 3
                  (List.length
                     (List.filter
                        (fun (r : Trace.record) -> r.Trace.name = "epoch")
                        (Trace.Ring.records ring))))))
    [ Fault.Pre_auction; Fault.Pre_settle; Fault.Post_settle ]

let test_journal_replay_roundtrip () =
  let plan = plan () in
  with_tmp_store (fun path ->
      let run = Supervisor.run plan ~journal:path ~market ~schedule:(compile_chaos plan) in
      match Journal.replay path with
      | Error msg -> Alcotest.failf "replay of a clean journal failed: %s" msg
      | Ok r ->
        Alcotest.(check bool) "no torn tail" false r.Journal.torn_tail;
        Alcotest.(check bool) "completion recorded" true (r.Journal.complete <> None);
        Alcotest.(check bool) "an unbounded store never rotates" true
          (r.Journal.segment_bytes = max_int
          && r.Journal.live_segments = [ 1 ]);
        Alcotest.(check int) "every epoch recorded" market.Epochs.epochs
          (List.length r.Journal.records);
        Alcotest.(check bool) "journaled reports match the run" true
          (compare
             (List.map (fun (rec_ : Journal.epoch_record) -> rec_.Journal.report)
                r.Journal.records)
             run.Supervisor.epochs
          = 0);
        Alcotest.(check bool) "completion carries the incident log" true
          (r.Journal.complete = Some (Supervisor.render_incidents run)))

let test_journal_torn_and_corrupt_tails_truncate () =
  let plan = plan () in
  with_tmp_store (fun path ->
      let _ = Supervisor.run plan ~journal:path ~market ~schedule:(compile_chaos plan) in
      let seg = first_segment path in
      let data = read_file seg in
      (* a tail cut mid-write: the last record reads as torn *)
      write_file seg (String.sub data 0 (String.length data - 5));
      (match Journal.replay path with
      | Error msg -> Alcotest.failf "a torn tail must not be fatal: %s" msg
      | Ok r ->
        Alcotest.(check bool) "torn tail detected" true r.Journal.torn_tail;
        Alcotest.(check bool) "truncated completion discarded" true
          (r.Journal.complete = None);
        Alcotest.(check int) "records before the tear survive"
          market.Epochs.epochs
          (List.length r.Journal.records));
      (* a flipped payload byte: the checksum rejects the record *)
      let corrupted = Bytes.of_string data in
      let last = Bytes.length corrupted - 1 in
      Bytes.set corrupted last
        (Char.chr (Char.code (Bytes.get corrupted last) lxor 0xFF));
      write_file seg (Bytes.to_string corrupted);
      match Journal.replay path with
      | Error msg -> Alcotest.failf "a bad checksum must not be fatal: %s" msg
      | Ok r ->
        Alcotest.(check bool) "corrupt record discarded as torn" true
          r.Journal.torn_tail;
        Alcotest.(check int) "records before it survive" market.Epochs.epochs
          (List.length r.Journal.records))

let test_resume_after_external_truncation () =
  (* Simulate kill -9 mid-write: chop the segment mid-record and
     resume. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let uninterrupted = Supervisor.run plan ~market ~schedule in
  with_tmp_store (fun path ->
      let _ = Supervisor.run plan ~journal:path ~market ~schedule in
      let seg = first_segment path in
      let data = read_file seg in
      write_file seg (String.sub data 0 (String.length data - 7));
      match Supervisor.resume ~journal:path plan ~market ~schedule with
      | Error msg -> Alcotest.failf "resume after truncation failed: %s" msg
      | Ok resumed ->
        Alcotest.(check string) "resumed run byte-identical"
          (render uninterrupted) (render resumed))

let test_journal_byte_identical_under_pool () =
  (* The tentpole determinism claim, pinned end-to-end: a journaled
     chaos run through the domain pool produces the same journal bytes
     and rendered report as the serial run. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let journal_of ?pool () =
    with_tmp_store (fun path ->
        let report =
          Supervisor.run ?pool plan ~journal:path ~market ~schedule
        in
        (render report, store_fingerprint path))
  in
  let serial_render, serial_bytes = journal_of () in
  Poc_util.Pool.with_pool ~jobs:4 (fun pool ->
      let par_render, par_bytes = journal_of ?pool () in
      Alcotest.(check string) "rendered report identical under jobs 4"
        serial_render par_render;
      Alcotest.(check bool) "journal bytes identical under jobs 4" true
        (serial_bytes = par_bytes))

let test_journal_byte_identical_with_feascache () =
  (* The feasibility cache must be journal-invisible: a journaled chaos
     run with the cache enabled (the default) writes the same bytes and
     renders the same report as one with it disabled — serially and
     through a pool. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let journal_of ?pool ~cache () =
    let was = Poc_auction.Feascache.enabled () in
    Poc_auction.Feascache.set_enabled cache;
    Fun.protect ~finally:(fun () -> Poc_auction.Feascache.set_enabled was)
      (fun () ->
        with_tmp_store (fun path ->
            let report =
              Supervisor.run ?pool plan ~journal:path ~market ~schedule
            in
            (render report, store_fingerprint path)))
  in
  let on_render, on_bytes = journal_of ~cache:true () in
  let off_render, off_bytes = journal_of ~cache:false () in
  Alcotest.(check string) "rendered report identical cache on/off" on_render
    off_render;
  Alcotest.(check bool) "journal bytes identical cache on/off" true
    (on_bytes = off_bytes);
  Poc_util.Pool.with_pool ~jobs:4 (fun pool ->
      let pooled_render, pooled_bytes = journal_of ?pool ~cache:true () in
      Alcotest.(check string) "report identical, cache on + jobs 4" on_render
        pooled_render;
      Alcotest.(check bool) "journal bytes identical, cache on + jobs 4" true
        (on_bytes = pooled_bytes))

let test_resume_rejects_mismatch_and_complete () =
  let plan = plan () in
  let schedule = compile_chaos plan in
  with_tmp_store (fun path ->
      let _ = Supervisor.run plan ~journal:path ~market ~schedule in
      (match Supervisor.resume ~journal:path plan ~market ~schedule with
      | Ok _ -> Alcotest.fail "a complete journal must be refused"
      | Error msg ->
        Alcotest.(check bool) "says nothing to resume" true
          (contains msg "nothing to resume"));
      (match
         Supervisor.resume ~journal:path plan
           ~market:{ market with Epochs.seed = market.Epochs.seed + 1 }
           ~schedule
       with
      | Ok _ -> Alcotest.fail "a seed mismatch must be refused"
      | Error msg ->
        Alcotest.(check bool) "names the market seed" true
          (contains msg "market seed"));
      let other_faults =
        match Fault.compile plan.Planner.wan ~seed:2021 (chaos_specs plan) with
        | Ok s -> s
        | Error msg -> Alcotest.failf "compile failed: %s" msg
      in
      match Supervisor.resume ~journal:path plan ~market ~schedule:other_faults with
      | Ok _ -> Alcotest.fail "a different fault schedule must be refused"
      | Error msg ->
        Alcotest.(check bool) "names the digest" true (contains msg "digest"))

let test_replay_rejects_garbage_and_versions () =
  with_tmp_store (fun path ->
      Sys.mkdir path 0o755;
      let seg = first_segment path in
      write_file seg "these are not the records you are looking for";
      (match Journal.replay path with
      | Ok _ -> Alcotest.fail "garbage must not replay"
      | Error msg ->
        Alcotest.(check bool) "says the header is unreadable" true
          (contains msg "unreadable header"));
      (* a well-formed segment header frame from a future format
         version *)
      let w = Codec.writer () in
      Codec.put_u8 w 4;
      Codec.put_u32 w 0x504F434A;
      Codec.put_int w (Journal.version + 1);
      Codec.put_int w 1;
      Codec.put_int w max_int;
      Codec.put_int w 7;
      Codec.put_int w 8;
      Codec.put_int w 6;
      Codec.put_int w 4;
      Codec.put_i64 w 0L;
      Codec.put_u8 w 0;
      write_file seg (Codec.frame (Codec.contents w));
      (match Journal.replay path with
      | Ok _ -> Alcotest.fail "a future version must not replay"
      | Error msg ->
        Alcotest.(check bool) "names the version" true (contains msg "version"));
      (match Journal.replay (path ^ ".does-not-exist") with
      | Ok _ -> Alcotest.fail "a missing store must not replay"
      | Error msg ->
        Alcotest.(check bool) "says it cannot read" true
          (contains msg "cannot read"));
      (* A plain file — e.g. a single-file journal written by an older
         build — is refused with the reason, by replay and scrub alike,
         and left as it was. *)
      let old = path ^ ".bin" in
      write_file old (read_file seg);
      Fun.protect
        ~finally:(fun () -> Sys.remove old)
        (fun () ->
          (match Journal.replay old with
          | Ok _ -> Alcotest.fail "a plain file must not replay"
          | Error msg ->
            Alcotest.(check bool) "replay: not a store directory" true
              (contains msg "not a journal store directory"));
          (match Journal.scrub old with
          | Ok _ -> Alcotest.fail "a plain file must not scrub"
          | Error msg ->
            Alcotest.(check bool) "scrub: not a store directory" true
              (contains msg "not a journal store directory"));
          Alcotest.(check bool) "plain file untouched" true
            (read_file old = read_file seg)))

(* --- Segmented store: rotation, GC, disk faults, scrub --- *)

module Disk = Poc_resilience.Disk

let segment_budget = 700

let test_segmented_rotation_and_gc () =
  let plan = plan () in
  let schedule = compile_chaos plan in
  with_tmp_store (fun dir ->
      let _ =
        Supervisor.run plan ~journal:dir ~segment_bytes:segment_budget ~market
          ~schedule
      in
      match Journal.replay dir with
      | Error msg -> Alcotest.failf "segmented replay failed: %s" msg
      | Ok r ->
        Alcotest.(check int) "budget recorded in the segment header"
          segment_budget r.Journal.segment_bytes;
        Alcotest.(check bool) "rotation happened" true
          (r.Journal.active_segment > 1);
        Alcotest.(check bool) "GC keeps at most active + predecessor" true
          (List.length r.Journal.live_segments <= 2);
        (* The manifest and the directory agree: no orphan segments. *)
        let on_disk =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun n -> Filename.check_suffix n ".seg")
          |> List.length
        in
        Alcotest.(check int) "no orphan segment files"
          (List.length r.Journal.live_segments)
          on_disk;
        Alcotest.(check bool) "completion survives rotation" true
          (r.Journal.complete <> None))

let test_segmented_crash_resume_byte_identical () =
  (* The tentpole determinism claim on the segmented store: crash mid
     run, resume, and both the rendered report and every byte of every
     store file match an uninterrupted segmented run — including the
     rotation points. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  with_tmp_store (fun ref_dir ->
      let uninterrupted =
        Supervisor.run plan ~journal:ref_dir ~segment_bytes:segment_budget
          ~market ~schedule
      in
      let reference = store_fingerprint ref_dir in
      List.iter
        (fun (at_epoch, phase) ->
          let crashing =
            match
              Fault.compile plan.Planner.wan ~seed:2020
                (chaos_specs plan @ [ Fault.Crash { at_epoch; phase } ])
            with
            | Ok s -> s
            | Error msg -> Alcotest.failf "crash schedule: %s" msg
          in
          with_tmp_store (fun dir ->
              (match
                 Supervisor.run plan ~journal:dir
                   ~segment_bytes:segment_budget ~market ~schedule:crashing
               with
              | _ -> Alcotest.fail "expected an injected crash"
              | exception Supervisor.Injected_crash _ -> ());
              match Supervisor.resume ~journal:dir plan ~market ~schedule with
              | Error msg ->
                Alcotest.failf "resume at %d failed: %s" at_epoch msg
              | Ok resumed ->
                Alcotest.(check string)
                  (Printf.sprintf "rendered identical (crash at %d)" at_epoch)
                  (render uninterrupted) (render resumed);
                Alcotest.(check bool)
                  (Printf.sprintf "store byte-identical (crash at %d)" at_epoch)
                  true
                  (store_fingerprint dir = reference)))
        (* Epoch 4 post_settle is immediately after a rotation (snapshot
           cadence 4); epoch 5 pre_auction crosses the boundary; epoch 2
           is before any snapshot or rotation. *)
        [
          (2, Fault.Post_settle);
          (4, Fault.Post_settle);
          (5, Fault.Pre_auction);
          (6, Fault.Pre_settle);
        ])

let test_segmented_torn_rename_mid_rotation () =
  (* A power cut whose rename never hit the directory entry: the
     manifest still lists the old segments and the new segment is an
     orphan.  Resume must delete the orphan, redo the rotation, and
     land byte-identical. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  with_tmp_store (fun ref_dir ->
      let uninterrupted =
        Supervisor.run plan ~journal:ref_dir ~segment_bytes:segment_budget
          ~market ~schedule
      in
      let reference = store_fingerprint ref_dir in
      let faulty =
        match
          Fault.compile plan.Planner.wan ~seed:2020
            (chaos_specs plan
            @ [
                (* Post_settle at epoch 4: the snapshot-triggered
                   rotation has just renamed the manifest. *)
                Fault.Storage
                  {
                    at_epoch = 4;
                    phase = Fault.Post_settle;
                    fault = Disk.Torn_rename;
                  };
              ])
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "storage schedule: %s" msg
      in
      with_tmp_store (fun dir ->
          (match
             Supervisor.run plan ~journal:dir ~segment_bytes:segment_budget
               ~market ~schedule:faulty
           with
          | _ -> Alcotest.fail "expected an injected crash"
          | exception Supervisor.Injected_crash _ -> ());
          match Supervisor.resume ~journal:dir plan ~market ~schedule with
          | Error msg -> Alcotest.failf "resume after torn rename: %s" msg
          | Ok resumed ->
            Alcotest.(check string) "rendered identical after torn rename"
              (render uninterrupted) (render resumed);
            Alcotest.(check bool) "store byte-identical after torn rename" true
              (store_fingerprint dir = reference)))

let test_interior_corruption_anchor () =
  (* A byte flipped in the middle of a committed region truncates the
     replay at the flip — records before it survive, nothing after it
     is invented — and a resume reproduces the uninterrupted run
     byte-for-byte. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let uninterrupted = Supervisor.run plan ~market ~schedule in
  with_tmp_store (fun path ->
      let _ = Supervisor.run plan ~journal:path ~market ~schedule in
      let seg = first_segment path in
      let clean = read_file seg in
      let full_records =
        match Journal.replay path with
        | Ok r -> List.length r.Journal.records
        | Error msg -> Alcotest.failf "clean replay failed: %s" msg
      in
      let flip = String.length clean / 2 in
      let corrupted = Bytes.of_string clean in
      Bytes.set corrupted flip
        (Char.chr (Char.code (Bytes.get corrupted flip) lxor 0x5A));
      write_file seg (Bytes.to_string corrupted);
      (match Journal.replay path with
      | Error msg -> Alcotest.failf "interior corruption must not be fatal: %s" msg
      | Ok r ->
        Alcotest.(check bool) "reads as torn at the flip" true
          r.Journal.torn_tail;
        Alcotest.(check bool) "records before the flip survive" true
          (List.length r.Journal.records > 0);
        Alcotest.(check bool) "records after the flip are dropped" true
          (List.length r.Journal.records < full_records);
        Alcotest.(check bool) "truncation lands before the flip" true
          (r.Journal.resume_offset <= flip));
      (* scrub agrees, and repairs in place *)
      (match Journal.scrub path with
      | Error msg -> Alcotest.failf "scrub failed: %s" msg
      | Ok report ->
        Alcotest.(check bool) "the one segment is truncated at the damage"
          true
          (List.map
             (fun (e : Journal.segment_scrub) ->
               (e.Journal.verdict, e.Journal.action))
             report.Journal.segments
          = [ (Journal.Scrub_corrupt_interior, Journal.Scrub_truncated) ]);
        Alcotest.(check bool) "scrub recovers" true report.Journal.recovered);
      match Supervisor.resume ~journal:path plan ~market ~schedule with
      | Error msg -> Alcotest.failf "resume after corruption failed: %s" msg
      | Ok resumed ->
        Alcotest.(check string) "resumed run byte-identical"
          (render uninterrupted) (render resumed))

let test_scrub_quarantine_falls_back () =
  (* An unreadable active-segment header is the one damage replay
     cannot truncate through.  scrub quarantines the segment and falls
     back to the predecessor's checkpoint; the resumed run then redoes
     the lost epochs and reports identically (byte-identity of the
     store is NOT promised on this path — rotation timing shifts). *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let uninterrupted = Supervisor.run plan ~market ~schedule in
  with_tmp_store (fun dir ->
      let crashing =
        match
          Fault.compile plan.Planner.wan ~seed:2020
            (chaos_specs plan
            @ [ Fault.Crash { at_epoch = 6; phase = Fault.Post_settle } ])
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "crash schedule: %s" msg
      in
      (match
         Supervisor.run plan ~journal:dir ~segment_bytes:segment_budget ~market
           ~schedule:crashing
       with
      | _ -> Alcotest.fail "expected an injected crash"
      | exception Supervisor.Injected_crash _ -> ());
      let live =
        match Journal.replay dir with
        | Ok r -> r.Journal.live_segments
        | Error msg -> Alcotest.failf "replay before damage failed: %s" msg
      in
      Alcotest.(check bool) "two live segments before damage" true
        (List.length live = 2);
      let active =
        Filename.concat dir
          (Printf.sprintf "%05d.seg" (List.fold_left max 0 live))
      in
      let data = read_file active in
      write_file active ("XXXXXXXXXXXX" ^ String.sub data 12 (String.length data - 12));
      (match Supervisor.resume ~journal:dir plan ~market ~schedule with
      | Ok _ -> Alcotest.fail "an unreadable header must refuse resume"
      | Error msg ->
        Alcotest.(check bool) "error points at scrub" true
          (contains msg "scrub"));
      (* dry run changes nothing *)
      (match Journal.scrub ~dry_run:true dir with
      | Error msg -> Alcotest.failf "dry-run scrub failed: %s" msg
      | Ok report ->
        Alcotest.(check bool) "dry run not applied" false report.Journal.applied;
        Alcotest.(check bool) "file untouched by dry run" true
          (Sys.file_exists active));
      (match Journal.scrub dir with
      | Error msg -> Alcotest.failf "scrub failed: %s" msg
      | Ok report ->
        Alcotest.(check bool) "applied" true report.Journal.applied;
        Alcotest.(check bool) "recovered via predecessor" true
          report.Journal.recovered;
        let quarantined =
          List.filter
            (fun (s : Journal.segment_scrub) ->
              s.Journal.action = Journal.Scrub_quarantined)
            report.Journal.segments
        in
        Alcotest.(check int) "one segment quarantined" 1
          (List.length quarantined);
        let json = Journal.scrub_to_json report in
        Alcotest.(check bool) "json report mentions the quarantine" true
          (contains json "\"quarantined\":[");
        Alcotest.(check bool) "json report carries the store root" true
          (contains json (Printf.sprintf "\"store\":\"%s\"" dir));
        Alcotest.(check bool) "json report counts the quarantine" true
          (contains json "\"quarantined_count\":1")
      );
      Alcotest.(check bool) "segment moved into quarantine/" true
        (Sys.file_exists
           (Filename.concat (Filename.concat dir "quarantine")
              (Filename.basename active)));
      match Supervisor.resume ~journal:dir plan ~market ~schedule with
      | Error msg -> Alcotest.failf "resume after scrub failed: %s" msg
      | Ok resumed ->
        Alcotest.(check string) "reports identical after fall-back"
          (render uninterrupted) (render resumed))

(* The acceptance matrix: every storage-fault kind at a random epoch,
   phase and worker count either resumes to an identical report
   directly, or scrub recovers and the second resume does — and a
   scrub that reports unrecoverable is the only permitted dead end. *)
let qcheck_storage_fault_matrix =
  let plan_l = lazy (plan ()) in
  let baseline =
    lazy
      (let plan = Lazy.force plan_l in
       render (Supervisor.run plan ~market ~schedule:(compile_chaos plan)))
  in
  QCheck.Test.make ~name:"storage faults: resume or scrub, never divergence"
    ~count:8
    QCheck.(
      quad (int_range 0 3) (int_range 1 1000) (int_range 2 7) (int_range 0 5))
    (fun (kind, arg, at_epoch, phase_jobs) ->
      let plan = Lazy.force plan_l in
      let fault =
        match kind with
        | 0 -> Disk.Short_write { drop = 1 + (arg mod 32) }
        | 1 -> Disk.Torn_rename
        | 2 -> Disk.Lying_fsync { drop = 1 + (arg mod 32) }
        | _ -> Disk.Corrupt_byte { seed = arg }
      in
      let phase =
        match phase_jobs mod 3 with
        | 0 -> Fault.Pre_auction
        | 1 -> Fault.Pre_settle
        | _ -> Fault.Post_settle
      in
      let jobs = if phase_jobs >= 3 then 4 else 1 in
      let schedule = compile_chaos plan in
      let faulty =
        match
          Fault.compile plan.Planner.wan ~seed:2020
            (chaos_specs plan @ [ Fault.Storage { at_epoch; phase; fault } ])
        with
        | Ok s -> s
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      with_tmp_store (fun dir ->
          Poc_util.Pool.with_pool ~jobs (fun pool ->
              (match
                 Supervisor.run ?pool plan ~journal:dir
                   ~segment_bytes:segment_budget ~market ~schedule:faulty
               with
              | _ -> QCheck.Test.fail_report "expected an injected crash"
              | exception Supervisor.Injected_crash _ -> ());
              let check_render (r : Supervisor.report) =
                if render r <> Lazy.force baseline then
                  QCheck.Test.fail_reportf
                    "diverged (kind %d, epoch %d, jobs %d)" kind at_epoch jobs
                else true
              in
              match Supervisor.resume ?pool ~journal:dir plan ~market ~schedule with
              | Ok resumed -> check_render resumed
              | Error _ -> (
                match Journal.scrub dir with
                | Error msg -> QCheck.Test.fail_reportf "scrub failed: %s" msg
                | Ok report when not report.Journal.recovered ->
                  true (* the permitted dead end: nothing durable left *)
                | Ok _ -> (
                  match
                    Supervisor.resume ?pool ~journal:dir plan ~market ~schedule
                  with
                  | Ok resumed -> check_render resumed
                  | Error msg ->
                    QCheck.Test.fail_reportf
                      "resume after recovering scrub failed: %s" msg)))))

(* Scrub is a repair, not a process: once the first pass has truncated
   and quarantined, any later pass must find nothing to do — same
   report every time, not a byte of the store touched.  The fleet
   driver leans on this when it scrubs unconditionally after every
   injected kill. *)
let qcheck_scrub_idempotent =
  let plan_l = lazy (plan ()) in
  QCheck.Test.make ~name:"scrub twice: the second pass is a no-op" ~count:8
    QCheck.(
      quad (int_range 0 3) (int_range 1 1000) (int_range 2 7) (int_range 0 2))
    (fun (kind, arg, at_epoch, phase_i) ->
      let plan = Lazy.force plan_l in
      let fault =
        match kind with
        | 0 -> Disk.Short_write { drop = 1 + (arg mod 32) }
        | 1 -> Disk.Torn_rename
        | 2 -> Disk.Lying_fsync { drop = 1 + (arg mod 32) }
        | _ -> Disk.Corrupt_byte { seed = arg }
      in
      let phase =
        match phase_i with
        | 0 -> Fault.Pre_auction
        | 1 -> Fault.Pre_settle
        | _ -> Fault.Post_settle
      in
      let faulty =
        match
          Fault.compile plan.Planner.wan ~seed:2020
            (chaos_specs plan @ [ Fault.Storage { at_epoch; phase; fault } ])
        with
        | Ok s -> s
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      with_tmp_store (fun dir ->
          (match
             Supervisor.run plan ~journal:dir ~segment_bytes:segment_budget
               ~market ~schedule:faulty
           with
          | _ -> QCheck.Test.fail_report "expected an injected crash"
          | exception Supervisor.Injected_crash _ -> ());
          match Journal.scrub dir with
          | Error msg -> QCheck.Test.fail_reportf "first scrub failed: %s" msg
          | Ok _ -> (
            let settled = store_fingerprint dir in
            match Journal.scrub dir with
            | Error msg ->
              QCheck.Test.fail_reportf "second scrub failed: %s" msg
            | Ok second -> (
              if
                List.exists
                  (fun (e : Journal.segment_scrub) ->
                    e.Journal.action <> Journal.Scrub_none)
                  second.Journal.segments
              then
                QCheck.Test.fail_reportf
                  "second scrub still acted (kind %d, epoch %d)" kind at_epoch;
              if store_fingerprint dir <> settled then
                QCheck.Test.fail_reportf
                  "second scrub changed the store (kind %d, epoch %d)" kind
                  at_epoch;
              match Journal.scrub dir with
              | Error msg ->
                QCheck.Test.fail_reportf "third scrub failed: %s" msg
              | Ok third ->
                if
                  Journal.scrub_to_json third
                  <> Journal.scrub_to_json second
                then
                  QCheck.Test.fail_reportf
                    "repeat scrub reports differ (kind %d, epoch %d)" kind
                    at_epoch;
                if store_fingerprint dir <> settled then
                  QCheck.Test.fail_reportf
                    "third scrub changed the store (kind %d, epoch %d)" kind
                    at_epoch;
                true))))

(* --- Ladder under the domain pool --- *)

let engaged_key = function
  | None -> "none"
  | Some e ->
    Printf.sprintf "%s attempts=%d scale=%g pay=%.9f"
      (Ladder.step_to_string e.Ladder.step)
      e.Ladder.attempts e.Ladder.demand_scale
      e.Ladder.outcome.Vcg.total_payment

let test_ladder_engage_pool_invariant () =
  (* Speculative parallel rung evaluation must pick the same rung, with
     the same reported attempt count and the same priced outcome, as
     the serial walk — at every pool size, traced or not: tracing must
     not change which program runs. *)
  let module Trace = Poc_obs.Trace in
  let plan = plan () in
  let problem = plan.Planner.problem in
  let virtuals = List.map fst problem.Vcg.virtual_prices in
  let bans =
    [
      ("nothing banned", fun _ -> false);
      (* Every real link gone: the early rungs all fail and the ladder
         walks deep before (at most) external transit answers. *)
      ("real links banned", fun id -> not (List.mem id virtuals));
    ]
  in
  List.iter
    (fun (label, banned) ->
      let serial = Ladder.engage ~banned problem in
      if label = "nothing banned" && serial = None then
        Alcotest.fail "fixture should engage when nothing is banned";
      List.iter
        (fun jobs ->
          Poc_util.Pool.with_pool ~jobs (fun pool ->
              let par = Ladder.engage ~banned ?pool problem in
              Alcotest.(check string)
                (Printf.sprintf "%s: jobs=%d matches serial" label jobs)
                (engaged_key serial) (engaged_key par);
              Alcotest.(check bool)
                (Printf.sprintf "%s: jobs=%d outcome identical" label jobs)
                true
                (compare serial par = 0);
              let ring = Trace.Ring.create () in
              Trace.set_sink (Some (Trace.Ring.sink ring));
              Fun.protect
                ~finally:(fun () -> Trace.set_sink None)
                (fun () ->
                  let traced = Ladder.engage ~banned ?pool problem in
                  Alcotest.(check string)
                    (Printf.sprintf "%s: jobs=%d traced matches serial" label
                       jobs)
                    (engaged_key serial) (engaged_key traced);
                  Alcotest.(check int)
                    (Printf.sprintf "%s: jobs=%d traced leaves no span open"
                       label jobs)
                    0 (Trace.open_spans ());
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: jobs=%d the traced walk left spans"
                       label jobs)
                    true
                    (Trace.Ring.records ring <> []))))
        [ 2; 4 ])
    bans

(* --- Disk.retrying: jittered backoff over transient I/O errors --- *)

let retry_policy =
  {
    Disk.retry_attempts = 3;
    retry_base_delay = 0.01;
    retry_multiplier = 2.0;
    retry_max_delay = 0.03;
    retry_jitter = 0.25;
    retry_seed = 42;
  }

(* Wrap [ops] with recording hooks and a fake sleep; returns the
   wrapped ops plus the (op, attempt, delay) log and the slept delays,
   both in call order once reversed. *)
let record_retries ops =
  let log = ref [] and sleeps = ref [] in
  let wrapped =
    Disk.retrying ~policy:retry_policy
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      ~on_retry:(fun ~op ~attempt ~delay _msg ->
        log := (op, attempt, delay) :: !log)
      ops
  in
  (wrapped, log, sleeps)

let flaky_read ~failures =
  let left = ref failures in
  {
    Disk.real_ops with
    Disk.read_file =
      (fun path ->
        if !left > 0 then begin
          decr left;
          raise (Sys_error ("flaky: " ^ path))
        end
        else "payload:" ^ path);
  }

let test_disk_retry_recovers_transient_faults () =
  let run () =
    let wrapped, log, sleeps = record_retries (flaky_read ~failures:2) in
    let v = wrapped.Disk.read_file "x" in
    (v, List.rev !log, List.rev !sleeps)
  in
  let v, log, sleeps = run () in
  Alcotest.(check string) "succeeds once the fault clears" "payload:x" v;
  Alcotest.(check int) "one retry per transient failure" 2 (List.length log);
  List.iteri
    (fun i (op, attempt, delay) ->
      Alcotest.(check string) "retried op" "read_file" op;
      Alcotest.(check int) "attempts count up" (i + 1) attempt;
      let backoff = Float.min 0.03 (0.01 *. (2.0 ** float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within the jitter band" (i + 1))
        true
        (delay >= backoff && delay <= backoff *. 1.25))
    log;
  Alcotest.(check bool) "slept exactly the reported delays" true
    (sleeps = List.map (fun (_, _, d) -> d) log);
  (* Same seed, fresh wrapper: the jitter schedule is deterministic. *)
  let v', log', sleeps' = run () in
  Alcotest.(check bool) "schedule is deterministic" true
    (v' = v && log' = log && sleeps' = sleeps)

let test_disk_retry_exhausts_then_raises () =
  let wrapped, log, _ = record_retries (flaky_read ~failures:max_int) in
  (match wrapped.Disk.read_file "y" with
  | _ -> Alcotest.fail "a persistently failing disk must re-raise"
  | exception Sys_error _ -> ());
  Alcotest.(check int) "whole budget spent first" retry_policy.Disk.retry_attempts
    (List.length !log)

(* A level that exists but is a regular file is refused by name and
   never handed to mkdir, however deep below it the path goes. *)
let test_disk_mkdir_p_refuses_a_file_level () =
  with_tmp_store (fun root ->
      Disk.mkdir_p (Disk.real ()) root;
      let file = Filename.concat root "file" in
      write_file file "";
      let mkdirs = ref 0 in
      let disk =
        Disk.with_ops
          {
            Disk.real_ops with
            Disk.mkdir =
              (fun p ->
                incr mkdirs;
                Disk.real_ops.Disk.mkdir p);
          }
      in
      List.iter
        (fun path ->
          match Disk.mkdir_p disk path with
          | () -> Alcotest.failf "%s must not be made" path
          | exception Sys_error msg ->
            Alcotest.(check string) "names the level" (file ^ ": Not a directory")
              msg)
        [ file; Filename.concat file "store"; Filename.concat file "a/b" ];
      Alcotest.(check int) "no mkdir attempted" 0 !mkdirs)

(* --- Black-box flight recorder persistence --- *)

module Black_box = Poc_resilience.Black_box
module Flight = Poc_obs.Flight

let test_journal_byte_identical_with_flight () =
  (* The tentpole invariant: attaching the flight recorder must not
     move a single journal byte.  Same plan, same schedule, segmented
     store; compare every store file except the FLIGHT box itself. *)
  let plan = plan () in
  let schedule = compile_chaos plan in
  let journal_files dir =
    store_fingerprint dir |> List.filter (fun (name, _) -> name <> "FLIGHT")
  in
  with_tmp_store (fun off_dir ->
      let r_off =
        Supervisor.run plan ~journal:off_dir ~segment_bytes:segment_budget
          ~market ~schedule
      in
      with_tmp_store (fun on_dir ->
          let box = Black_box.create (Filename.concat on_dir "FLIGHT") in
          let r_on =
            Supervisor.run plan ~journal:on_dir ~segment_bytes:segment_budget
              ~market ~schedule ~flight:box
          in
          Black_box.close box;
          Alcotest.(check string) "reports identical" (render r_off) (render r_on);
          Alcotest.(check bool) "journal bytes identical with the recorder on"
            true
            (journal_files off_dir = journal_files on_dir);
          match Black_box.load (Filename.concat on_dir "FLIGHT") with
          | Error e -> Alcotest.failf "flight box unreadable: %s" e
          | Ok img ->
            Alcotest.(check bool) "box recorded the run" true
              (img.Flight.img_records <> []);
            Alcotest.(check bool) "box image is clean" false img.Flight.img_torn))

let test_flight_box_disk_fault_scrub () =
  (* A power cut tears the box's most recent append mid-frame; load
     tolerates the tear, scrub truncates to the valid prefix, and after
     the scrub the image re-reads byte-identically (a second scrub
     keeps every byte). *)
  with_tmp_store (fun dir ->
      let disk = Disk.real () in
      let path = Filename.concat dir "FLIGHT" in
      let box = Black_box.create ~capacity:64 ~disk path in
      let ring = Black_box.ring box in
      for e = 0 to 5 do
        for i = 0 to 3 do
          Flight.emit ring
            ~ts_us:(float_of_int ((4 * e) + i))
            ~epoch:e ~phase:"epoch"
            (Flight.Event { name = "tick"; detail = Printf.sprintf "%d.%d" e i })
        done;
        Black_box.flush box
      done;
      let intact = read_file path in
      Disk.power_cut disk (Disk.Short_write { drop = 5 });
      let torn = read_file path in
      Alcotest.(check bool) "the fault removed bytes" true
        (String.length torn < String.length intact);
      (match Black_box.load ~disk path with
      | Error e -> Alcotest.failf "a torn box must load: %s" e
      | Ok img ->
        Alcotest.(check bool) "tear detected" true img.Flight.img_torn;
        Alcotest.(check int) "only the torn frame is lost" 23
          (List.length img.Flight.img_records));
      (match Black_box.scrub ~disk path with
      | Error e -> Alcotest.failf "scrub: %s" e
      | Ok r ->
        Alcotest.(check bool) "scrub dropped the torn frame" true
          (r.Black_box.fb_bytes_dropped > 0);
        Alcotest.(check int) "kept prefix is exactly the file"
          r.Black_box.fb_bytes_kept
          (String.length (read_file path));
        Alcotest.(check int) "records in the kept prefix" 23
          r.Black_box.fb_records);
      let scrubbed = read_file path in
      (match Black_box.load ~disk path with
      | Error e -> Alcotest.failf "a scrubbed box must load: %s" e
      | Ok img ->
        Alcotest.(check bool) "clean after scrub" false img.Flight.img_torn;
        Alcotest.(check int) "history before the tear survives" 23
          (List.length img.Flight.img_records));
      match Black_box.scrub ~disk path with
      | Error e -> Alcotest.failf "second scrub: %s" e
      | Ok r ->
        Alcotest.(check int) "idempotent: nothing more to drop" 0
          r.Black_box.fb_bytes_dropped;
        Alcotest.(check string) "byte-identical after re-scrub" scrubbed
          (read_file path))

let test_flight_box_reopen_continues_in_place () =
  (* A reopened box keeps the file's valid prefix byte for byte (the
     torn tail cut off, as a scrub would) and appends after it; only a
     box of another capacity is rewritten. *)
  with_tmp_store (fun dir ->
      let path = Filename.concat dir "FLIGHT" in
      let disk = Disk.real () in
      let box = Black_box.create ~capacity:64 ~disk path in
      let tick box i =
        Flight.emit (Black_box.ring box) ~ts_us:(float_of_int i) ~epoch:1
          ~phase:"epoch"
          (Flight.Event { name = "tick"; detail = string_of_int i });
        Black_box.flush box
      in
      for i = 0 to 9 do
        tick box i
      done;
      Disk.power_cut disk (Disk.Short_write { drop = 5 });
      let torn = read_file path in
      let keep = Flight.valid_prefix torn in
      let box = Black_box.reopen ~capacity:64 path in
      Alcotest.(check string) "the file is cut to its valid prefix"
        (String.sub torn 0 keep) (read_file path);
      Alcotest.(check int) "the box appends from there" keep
        (Black_box.file_bytes box);
      tick box 10;
      (match Black_box.load path with
      | Error e -> Alcotest.failf "a reopened box must load: %s" e
      | Ok img ->
        Alcotest.(check bool) "clean after an append" false img.Flight.img_torn;
        Alcotest.(check int) "nine kept records and the new one" 10
          (List.length img.Flight.img_records);
        Alcotest.(check int) "the new record continues the seq" 9
          (List.nth img.Flight.img_records 9).Flight.seq);
      ignore (Black_box.reopen ~capacity:4 path : Black_box.t);
      match Black_box.load path with
      | Error e -> Alcotest.failf "a rewritten box must load: %s" e
      | Ok img ->
        Alcotest.(check int) "another capacity rewrites the header" 4
          img.Flight.img_capacity;
        Alcotest.(check int) "every frame is the new ring's" 4
          img.Flight.img_frames)

let crash_plan_market () =
  let plan =
    match
      Planner.build
        (Planner.scaled_config ~sites:8 ~bps:3
           {
             Planner.default_config with
             Planner.seed = 42;
             rule = Acceptability.Handle_load;
           })
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  (plan, { Epochs.default_config with Epochs.epochs = 6; seed = 42 })

(* The chaos schedule plus crashes at the given epochs, all pre-settle.
   Crashes stay out of the journal digest, so every such schedule
   resumes every other's journal. *)
let crash_schedule plan epochs =
  match
    Fault.compile plan.Planner.wan ~seed:2020
      (chaos_specs plan
      @ List.map
          (fun at_epoch -> Fault.Crash { at_epoch; phase = Fault.Pre_settle })
          epochs)
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "crash schedule failed to compile: %s" msg

let analyze store =
  match Forensics.analyze store with
  | Error msg -> Alcotest.failf "forensics: %s" msg
  | Ok a -> a

let crashes (a : Forensics.analysis) =
  List.length
    (List.filter
       (fun (e : Forensics.entry) -> e.Forensics.e_detail = "crash: injected")
       a.Forensics.a_entries)

let in_flight = Alcotest.(option (pair int string))

let test_flight_box_keeps_crash_across_resume () =
  (* [chaos --sites 8 --bps 3 --epochs 6 --journal S --flight --crash
     4:pre_settle], then resumes of S with the box reopened: one the
     journal refuses, a second attempt that crashes at 6:pre_settle,
     then one that completes.  Every crash stays in the timeline, and
     the in-flight verdict names only the newest attempt's. *)
  let plan, market = crash_plan_market () in
  with_tmp_store (fun store ->
      let path = Forensics.flight_path_for store in
      (match
         Supervisor.run plan ~journal:store ~flight:(Black_box.create path)
           ~market ~schedule:(crash_schedule plan [ 4 ])
       with
      | _ -> Alcotest.fail "expected an injected crash"
      | exception Supervisor.Injected_crash _ -> ());
      let a = analyze store in
      Alcotest.check in_flight "the first attempt died at 4:pre_settle"
        (Some (4, "pre_settle")) a.Forensics.a_in_flight;
      (* A resume the journal refuses starts no attempt. *)
      (match
         Supervisor.resume ~journal:store ~flight:(Black_box.reopen path) plan
           ~market:{ market with Epochs.epochs = 7 }
           ~schedule:(crash_schedule plan [ 4 ])
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a resume with another horizon must be refused");
      Alcotest.check in_flight "a refused resume leaves the verdict alone"
        (Some (4, "pre_settle")) (analyze store).Forensics.a_in_flight;
      (match
         Supervisor.resume ~honor_crashes:true ~journal:store
           ~flight:(Black_box.reopen path) plan ~market
           ~schedule:(crash_schedule plan [ 6 ])
       with
      | _ -> Alcotest.fail "expected the second attempt to crash"
      | exception Supervisor.Injected_crash _ -> ());
      let a = analyze store in
      Alcotest.check in_flight "the second attempt died at 6:pre_settle"
        (Some (6, "pre_settle")) a.Forensics.a_in_flight;
      Alcotest.(check int) "both crashes are in the timeline" 2 (crashes a);
      let resumed = Black_box.reopen path in
      (match
         Supervisor.resume ~journal:store ~flight:resumed plan ~market
           ~schedule:(crash_schedule plan [ 4 ])
       with
      | Error msg -> Alcotest.failf "resume failed: %s" msg
      | Ok _ -> ());
      Black_box.close resumed;
      let a = analyze store in
      Alcotest.check in_flight "nothing is in flight after the last attempt"
        None a.Forensics.a_in_flight;
      Alcotest.(check int) "the earlier crashes are still in the timeline" 2
        (crashes a);
      Alcotest.(check bool) "the resumed run's last epoch is recorded too"
        true
        (List.exists
           (fun (e : Forensics.entry) ->
             e.Forensics.e_source = Forensics.Src_flight
             && e.Forensics.e_epoch = 6
             && e.Forensics.e_label = "span_close")
           a.Forensics.a_entries))

let test_flight_box_fresh_run_starts_empty () =
  (* Two fresh runs over one store: the second claims the directory
     (its journal clears the old segments) and its box starts
     header-only, so nothing of the first run's crash remains. *)
  let plan, market = crash_plan_market () in
  with_tmp_store (fun store ->
      let path = Forensics.flight_path_for store in
      (match
         Supervisor.run plan ~journal:store ~flight:(Black_box.create path)
           ~market ~schedule:(crash_schedule plan [ 4 ])
       with
      | _ -> Alcotest.fail "expected an injected crash"
      | exception Supervisor.Injected_crash _ -> ());
      let box = Black_box.create path in
      ignore
        (Supervisor.run plan ~journal:store ~flight:box ~market
           ~schedule:(crash_schedule plan [])
          : Supervisor.report);
      Black_box.close box;
      let a = analyze store in
      Alcotest.(check int) "no crash in the timeline" 0 (crashes a);
      Alcotest.check in_flight "nothing is in flight" None
        a.Forensics.a_in_flight;
      match a.Forensics.a_flight with
      | Some (Ok img) ->
        Alcotest.(check bool) "no resume marker either" false
          (List.exists Black_box.is_resume img.Flight.img_records)
      | _ -> Alcotest.fail "the second run's box must load")

let test_disk_retry_schedule_resets_on_success () =
  (* Fail, succeed, fail: the second failure restarts the backoff at
     the base delay (same jitter draw) instead of continuing to climb. *)
  let calls = ref 0 in
  let ops =
    {
      Disk.real_ops with
      Disk.read_file =
        (fun _ ->
          incr calls;
          if !calls mod 2 = 1 then raise (Sys_error "flaky") else "ok");
    }
  in
  let wrapped, log, _ = record_retries ops in
  ignore (wrapped.Disk.read_file "a");
  ignore (wrapped.Disk.read_file "b");
  match List.rev !log with
  | [ (_, 1, d1); (_, 1, d2) ] ->
    Alcotest.(check (float 1e-12)) "backoff restarts at the base delay" d1 d2
  | l -> Alcotest.failf "expected two first-attempt retries, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "fault validation lists every problem" `Quick
      test_fault_validation_lists_every_problem;
    Alcotest.test_case "fault compile is deterministic" `Quick
      test_fault_compile_is_deterministic;
    Alcotest.test_case "link failure emits matching repair" `Quick
      test_fault_failure_emits_repair;
    Alcotest.test_case "ladder rungs in order" `Quick test_ladder_rung_order;
    Alcotest.test_case "journal digest pinned" `Quick test_journal_digest_pinned;
    Alcotest.test_case "chaos run degrades and recovers" `Slow
      test_chaos_run_degrades_and_recovers;
    Alcotest.test_case "chaos invariants hold" `Slow test_chaos_invariants_hold;
    Alcotest.test_case "incident log is byte-identical" `Slow
      test_incident_log_is_byte_identical;
    Alcotest.test_case "fault-free run repeats the pinned market" `Slow
      test_faultfree_run_repeats_pinned_market;
    Alcotest.test_case "total blackout reports no recovery" `Slow
      test_total_blackout_reports_never;
    QCheck_alcotest.to_alcotest qcheck_fault_compile_seed_determinism;
    QCheck_alcotest.to_alcotest qcheck_fault_compile_seed_sensitivity;
    Alcotest.test_case "fault validation rejects bad crash spec" `Quick
      test_fault_validation_rejects_crash_epoch;
    Alcotest.test_case "pay-as-bid refuses an empty selection" `Quick
      test_pay_as_bid_empty_selection;
    Alcotest.test_case "pay-as-bid prices a virtual-only carry" `Quick
      test_pay_as_bid_external_transit_selection;
    Alcotest.test_case "pay-as-bid prices a surviving subset" `Quick
      test_pay_as_bid_surviving_subset;
    Alcotest.test_case "crash at pre_auction resumes byte-identical" `Slow
      test_crash_resume_pre_auction;
    Alcotest.test_case "crash at pre_settle resumes byte-identical" `Slow
      test_crash_resume_pre_settle;
    Alcotest.test_case "crash at post_settle resumes byte-identical" `Slow
      test_crash_resume_post_settle;
    Alcotest.test_case "crash before first snapshot resumes byte-identical"
      `Slow test_crash_resume_before_first_snapshot;
    Alcotest.test_case "injected crash closes the epoch's spans" `Slow
      test_crash_closes_spans;
    Alcotest.test_case "journal replay round-trips a clean run" `Slow
      test_journal_replay_roundtrip;
    Alcotest.test_case "torn and corrupt tails truncate, never crash" `Slow
      test_journal_torn_and_corrupt_tails_truncate;
    Alcotest.test_case "resume after external truncation" `Slow
      test_resume_after_external_truncation;
    Alcotest.test_case "journal bytes identical under domain pool" `Slow
      test_journal_byte_identical_under_pool;
    Alcotest.test_case "journal bytes identical with feascache" `Slow
      test_journal_byte_identical_with_feascache;
    Alcotest.test_case "resume refuses mismatched or complete journals" `Slow
      test_resume_rejects_mismatch_and_complete;
    Alcotest.test_case "replay refuses garbage and future versions" `Quick
      test_replay_rejects_garbage_and_versions;
    Alcotest.test_case "segmented store rotates and GCs" `Slow
      test_segmented_rotation_and_gc;
    Alcotest.test_case "segmented crash/resume is byte-identical" `Slow
      test_segmented_crash_resume_byte_identical;
    Alcotest.test_case "torn rename mid-rotation resumes byte-identical" `Slow
      test_segmented_torn_rename_mid_rotation;
    Alcotest.test_case "interior corruption anchors resume" `Slow
      test_interior_corruption_anchor;
    Alcotest.test_case "scrub quarantines and falls back a checkpoint" `Slow
      test_scrub_quarantine_falls_back;
    QCheck_alcotest.to_alcotest qcheck_storage_fault_matrix;
    QCheck_alcotest.to_alcotest qcheck_scrub_idempotent;
    Alcotest.test_case "ladder engage is pool-invariant" `Slow
      test_ladder_engage_pool_invariant;
    Alcotest.test_case "disk retries recover transient faults" `Quick
      test_disk_retry_recovers_transient_faults;
    Alcotest.test_case "disk retries exhaust then raise" `Quick
      test_disk_retry_exhausts_then_raises;
    Alcotest.test_case "disk retry backoff resets on success" `Quick
      test_disk_retry_schedule_resets_on_success;
    Alcotest.test_case "disk mkdir_p refuses a level that is a file" `Quick
      test_disk_mkdir_p_refuses_a_file_level;
    Alcotest.test_case "journal byte-identical with flight recorder" `Slow
      test_journal_byte_identical_with_flight;
    Alcotest.test_case "flight box survives disk fault + scrub" `Quick
      test_flight_box_disk_fault_scrub;
    Alcotest.test_case "flight box reopen continues the file in place"
      `Quick test_flight_box_reopen_continues_in_place;
    Alcotest.test_case "flight box keeps the crash across a resume" `Quick
      test_flight_box_keeps_crash_across_resume;
    Alcotest.test_case "flight box of a fresh run over a store starts empty"
      `Quick test_flight_box_fresh_run_starts_empty;
  ]
