(* Fleet layer: chaos-matrix generator and the scenario-fleet driver. *)

module Chaos_matrix = Poc_fleet.Chaos_matrix
module Driver = Poc_fleet.Driver
module Fault = Poc_resilience.Fault
module Pool = Poc_util.Pool
module Forensics = Poc_forensics.Forensics

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let with_tmp_root f =
  let path = Filename.temp_file "poc_fleet" "" in
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

let full_axes =
  { Chaos_matrix.with_crash = true; with_storage = true; with_degrade = true }

let none_axes =
  { Chaos_matrix.with_crash = false; with_storage = false; with_degrade = false }

(* Small but real: every cell still runs a whole supervised month. *)
let small_config store =
  { (Driver.default_config ~store) with
    Driver.months = 6;
    seed = 11;
    topologies = 2;
    sites = 16;
    bps = 5;
    epochs = 4;
    segment_bytes = 1024;
    snapshot_every = 2;
  }

(* --- chaos matrix --- *)

let test_matrix_spec_parsing () =
  List.iter
    (fun (spec, expected) ->
      match Chaos_matrix.axes_of_spec spec with
      | Error msg -> Alcotest.failf "%S rejected: %s" spec msg
      | Ok axes ->
        Alcotest.(check bool) (Printf.sprintf "%S parses" spec) true
          (axes = expected))
    [
      ("none", none_axes);
      ("full", full_axes);
      ("crash", { none_axes with Chaos_matrix.with_crash = true });
      ("storage+degrade",
       { full_axes with Chaos_matrix.with_crash = false });
      ("degrade+crash+storage", full_axes);
      (" Crash + Storage ",
       { full_axes with Chaos_matrix.with_degrade = false });
    ];
  (match Chaos_matrix.axes_of_spec "crash+disk" with
  | Ok _ -> Alcotest.fail "bad token accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the token" true (contains msg "disk"));
  List.iter
    (fun axes ->
      match Chaos_matrix.axes_of_spec (Chaos_matrix.spec_of_axes axes) with
      | Ok roundtrip ->
        Alcotest.(check bool) "spec_of_axes round-trips" true (roundtrip = axes)
      | Error msg -> Alcotest.failf "canonical spec rejected: %s" msg)
    [ none_axes; full_axes; { none_axes with Chaos_matrix.with_storage = true } ]

let test_matrix_cells_cross () =
  let cells = Chaos_matrix.cells full_axes in
  Alcotest.(check int) "full matrix is 4 x 5 x 4" 80 (List.length cells);
  let names = List.map Chaos_matrix.cell_name cells in
  Alcotest.(check int) "cell names unique" 80
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "baseline cell present" true
    (List.mem "plain" names);
  Alcotest.(check int) "disabled axes leave the baseline" 1
    (List.length (Chaos_matrix.cells none_axes));
  List.iter2
    (fun cell name ->
      Alcotest.(check bool)
        (Printf.sprintf "has_kills consistent for %s" name)
        (Chaos_matrix.has_kills cell)
        (contains name "crash" || contains name "short_write"
        || contains name "torn_rename" || contains name "lying_fsync"
        || contains name "corrupt_byte"))
    cells names

let test_matrix_specs () =
  let plan = Lazy.force Fixtures.small_plan in
  let wan = plan.Poc_core.Planner.wan in
  let cells = Chaos_matrix.cells full_axes in
  (* Every cell compiles against a real WAN, and kill epochs stay
     distinct so a crash+storage cell fires both in order. *)
  List.iter
    (fun cell ->
      let specs = Chaos_matrix.specs cell ~wan ~epochs:6 ~salt:3 in
      (match Fault.validate wan specs with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "cell %s invalid: %s" (Chaos_matrix.cell_name cell) msg);
      let kill_epochs =
        List.filter_map
          (function
            | Fault.Crash { at_epoch; _ } | Fault.Storage { at_epoch; _ } ->
              Some at_epoch
            | _ -> None)
          specs
      in
      Alcotest.(check bool)
        (Printf.sprintf "kill epochs distinct in %s"
           (Chaos_matrix.cell_name cell))
        true
        (List.length kill_epochs
        = List.length (List.sort_uniq compare kill_epochs)))
    cells;
  match Chaos_matrix.specs (List.hd cells) ~wan ~epochs:3 ~salt:0 with
  | _ -> Alcotest.fail "epochs < 4 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- RESULT frames --- *)

let sample_outcome =
  {
    Driver.completed = true;
    kills = 2;
    recovered =
      { Driver.r_crash = 1; r_short_write = 0; r_torn_rename = 1;
        r_lying_fsync = 0; r_corrupt_byte = 0 };
    scrub_truncated = 3;
    scrub_quarantined = 1;
    restarts = 0;
    healthy = 5;
    degraded = 1;
    carried = 0;
    blackout = 0;
    incidents = 1;
    violations = 0;
    ladder_activations = 1;
    total_spend = 123456.789;
    mean_price = 1.5;
    mean_delivered = 0.998;
    pob = 0.25;
  }

let test_result_roundtrip () =
  let cfg = small_config "unused" in
  let scen = Driver.scenario cfg 3 in
  let data = Driver.encode_outcome scen sample_outcome in
  (match Driver.decode_outcome scen data with
  | Some o ->
    Alcotest.(check bool) "round-trips" true (o = sample_outcome)
  | None -> Alcotest.fail "own frame must decode");
  (match Driver.decode_outcome (Driver.scenario cfg 4) data with
  | Some _ -> Alcotest.fail "a mislaid RESULT must not decode"
  | None -> ());
  (match
     Driver.decode_outcome scen (String.sub data 0 (String.length data - 1))
   with
  | Some _ -> Alcotest.fail "a torn RESULT must not decode"
  | None -> ());
  match Driver.decode_outcome scen (data ^ "x") with
  | Some _ -> Alcotest.fail "trailing bytes must not decode"
  | None -> ()

(* --- the driver --- *)

let test_fleet_end_to_end () =
  with_tmp_root (fun root ->
      let cfg = small_config root in
      match Driver.run cfg with
      | Error msg -> Alcotest.failf "fleet failed: %s" msg
      | Ok (Driver.Interrupted _) -> Alcotest.fail "no kill-after requested"
      | Ok (Driver.Finished report) ->
        Alcotest.(check int) "six outcomes in scenario order" 6
          (List.length report.Driver.outcomes);
        List.iteri
          (fun i ((scen : Driver.scenario), (o : Driver.outcome)) ->
            Alcotest.(check int) "scenario order" i scen.Driver.index;
            Alcotest.(check bool)
              (Printf.sprintf "%s completed" scen.Driver.id)
              true o.Driver.completed;
            Alcotest.(check bool)
              (Printf.sprintf "%s kills match its cell" scen.Driver.id)
              true
              (Chaos_matrix.has_kills scen.Driver.cell = (o.Driver.kills > 0));
            Alcotest.(check bool)
              (Printf.sprintf "%s store on disk" scen.Driver.id)
              true
              (Sys.is_directory (Filename.concat root scen.Driver.id)))
          report.Driver.outcomes;
        (* Scenario 5 is the crash+storage cell: both kills must fire
           inside one fleet run — the kill chain at work. *)
        let (scen5, o5) = List.nth report.Driver.outcomes 5 in
        Alcotest.(check string) "cell 5 is the crash+short_write cell"
          "crash_pre_auction+short_write"
          (Chaos_matrix.cell_name scen5.Driver.cell);
        Alcotest.(check int) "both kill points fired" 2 o5.Driver.kills;
        Alcotest.(check int) "crash survived" 1
          o5.Driver.recovered.Driver.r_crash;
        Alcotest.(check int) "short write survived" 1
          o5.Driver.recovered.Driver.r_short_write;
        let json = Driver.report_to_json report in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "json has %s" needle)
              true (contains json needle))
          [ "\"survival\""; "\"recovered\""; "\"welfare\""; "\"cells\"";
            "\"completed\":6"; "\"unrecovered\":0" ];
        Alcotest.(check bool) "json carries no store path" false
          (contains json root))

let test_fleet_flight_verdict_after_kill_chain () =
  (* A month's in-process attempts share one flight box.  After a kill
     chain that the month survives, the kills' crash incidents stay in
     its timeline, and forensics finds nothing in flight: the
     supervisor marks where each retry's attempt starts. *)
  with_tmp_root (fun root ->
      let cfg = { (small_config root) with Driver.flight = true } in
      match Driver.run cfg with
      | Error msg -> Alcotest.failf "fleet failed: %s" msg
      | Ok (Driver.Interrupted _) -> Alcotest.fail "no kill-after requested"
      | Ok (Driver.Finished report) ->
        let (scen5, o5) = List.nth report.Driver.outcomes 5 in
        Alcotest.(check int) "both kill points fired" 2 o5.Driver.kills;
        match
          Forensics.analyze (Filename.concat root scen5.Driver.id)
        with
        | Error msg -> Alcotest.failf "forensics: %s" msg
        | Ok a ->
          Alcotest.(check bool) "the kills are in the timeline" true
            (List.exists
               (fun (e : Forensics.entry) ->
                 e.Forensics.e_label = "incident"
                 && contains e.Forensics.e_detail "crash")
               a.Forensics.a_entries);
          Alcotest.(check (option (pair int string)))
            "nothing is in flight after the month completed" None
            a.Forensics.a_in_flight)

let test_fleet_rejects_dirty_root_and_mismatch () =
  with_tmp_root (fun root ->
      let cfg = { (small_config root) with Driver.months = 1 } in
      (match Driver.run cfg with
      | Ok (Driver.Finished _) -> ()
      | Ok (Driver.Interrupted _) | Error _ ->
        Alcotest.fail "first run should finish");
      (match Driver.run cfg with
      | Error msg ->
        Alcotest.(check bool) "fresh run refuses a claimed root" true
          (contains msg "already holds a fleet")
      | Ok _ -> Alcotest.fail "fresh run must refuse a claimed root");
      (match Driver.run ~resume:true { cfg with Driver.seed = 12 } with
      | Error msg ->
        Alcotest.(check bool) "resume names the mismatched field" true
          (contains msg "seed")
      | Ok _ -> Alcotest.fail "resume must check the manifest");
      (* FLEET is exactly one frame: a flipped byte or a trailing byte
         makes it unreadable, never a config to trust. *)
      let manifest = Filename.concat root "FLEET" in
      let original = In_channel.with_open_bin manifest In_channel.input_all in
      let flipped = Bytes.of_string original in
      let last = Bytes.length flipped - 1 in
      Bytes.set flipped last
        (Char.chr (Char.code (Bytes.get flipped last) lxor 0x01));
      List.iter
        (fun (what, damaged) ->
          Out_channel.with_open_bin manifest (fun oc ->
              Out_channel.output_string oc damaged);
          match Driver.run ~resume:true cfg with
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "resume refuses a FLEET with %s" what)
              true (contains msg "unreadable")
          | Ok _ -> Alcotest.failf "resume must refuse a FLEET with %s" what)
        [ ("a flipped byte", Bytes.to_string flipped);
          ("a trailing byte", original ^ "\x00") ])

(* A store root under missing parents is made, parents included; one
   under a regular file is an [Error] (the CLI's exit 1), not an
   exception. *)
let test_fleet_root_made_or_refused () =
  with_tmp_root (fun tmp ->
      let store = Filename.concat tmp "x/y/fleet" in
      (match
         Driver.run
           { (small_config store) with Driver.months = 1; topologies = 1 }
       with
      | Ok (Driver.Finished _) -> ()
      | Ok (Driver.Interrupted _) -> Alcotest.fail "no kill-after requested"
      | Error msg -> Alcotest.failf "fleet under missing parents: %s" msg);
      let file = Filename.concat tmp "file" in
      Out_channel.with_open_bin file (fun _ -> ());
      match Driver.run (small_config (Filename.concat file "fleet")) with
      | Error msg ->
        Alcotest.(check bool) "the error names the store" true
          (contains msg "cannot create fleet store")
      | Ok _ -> Alcotest.fail "a store under a regular file must not open")

(* The acceptance property: the aggregate report's bytes do not depend
   on the pool size, nor on where a kill-and-resume split the fleet. *)
let qcheck_fleet_determinism =
  QCheck.Test.make ~name:"fleet report byte-identical: jobs x kill+resume"
    ~count:3
    QCheck.(pair (int_range 0 1000) (int_range 1 5))
    (fun (seed_offset, kill_after) ->
      with_tmp_root (fun ref_root ->
          let cfg root =
            { (small_config root) with Driver.seed = 11 + seed_offset }
          in
          let reference =
            match Driver.run (cfg ref_root) with
            | Ok (Driver.Finished report) -> Driver.report_to_json report
            | Ok (Driver.Interrupted _) | Error _ ->
              QCheck.Test.fail_report "reference fleet failed"
          in
          List.iter
            (fun jobs ->
              with_tmp_root (fun root ->
                  Pool.with_pool ~jobs (fun pool ->
                      match Driver.run ?pool (cfg root) with
                      | Ok (Driver.Finished report) ->
                        if Driver.report_to_json report <> reference then
                          QCheck.Test.fail_reportf "jobs=%d diverged" jobs
                      | Ok (Driver.Interrupted _) | Error _ ->
                        QCheck.Test.fail_reportf "jobs=%d fleet failed" jobs)))
            [ 2; 8 ];
          with_tmp_root (fun root ->
              (match Driver.run ~kill_after (cfg root) with
              | Ok (Driver.Interrupted { completed_months }) ->
                if completed_months < kill_after then
                  QCheck.Test.fail_reportf "stopped too early: %d"
                    completed_months
              | Ok (Driver.Finished _) ->
                QCheck.Test.fail_report "kill-after did not stop the fleet"
              | Error msg ->
                QCheck.Test.fail_reportf "killed fleet failed: %s" msg);
              match Driver.run ~resume:true (cfg root) with
              | Ok (Driver.Finished report) ->
                if Driver.report_to_json report <> reference then
                  QCheck.Test.fail_report "kill+resume diverged"
                else true
              | Ok (Driver.Interrupted _) | Error _ ->
                QCheck.Test.fail_report "resume failed")))

(* A survived kill leaves no span open behind it, and each pool worker
   nests its own spans: no scenario's epoch sits under another epoch. *)
let test_fleet_epoch_spans_never_nest () =
  let module Trace = Poc_obs.Trace in
  let crash_only =
    { Chaos_matrix.with_crash = true; with_storage = false;
      with_degrade = false }
  in
  List.iter
    (fun jobs ->
      with_tmp_root (fun root ->
          let recs = ref [] in
          Trace.set_sink
            (Some
               { Trace.emit = (fun r -> recs := r :: !recs); flush = ignore });
          let run =
            Fun.protect
              ~finally:(fun () -> Trace.set_sink None)
              (fun () ->
                Pool.with_pool ~jobs (fun pool ->
                    Driver.run ?pool
                      { (small_config root) with Driver.axes = crash_only }))
          in
          (match run with
          | Ok (Driver.Finished _) -> ()
          | Ok (Driver.Interrupted _) | Error _ ->
            Alcotest.fail "crash fleet should finish");
          let by_id = Hashtbl.create 256 in
          List.iter
            (fun (r : Trace.record) -> Hashtbl.replace by_id r.Trace.id r)
            !recs;
          let rec under_epoch parent =
            match Hashtbl.find_opt by_id parent with
            | None -> false
            | Some (p : Trace.record) ->
              p.Trace.name = "epoch" || under_epoch p.Trace.parent
          in
          let epochs =
            List.filter (fun (r : Trace.record) -> r.Trace.name = "epoch") !recs
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d: every month traced" jobs)
            true
            (List.length epochs >= 6 * 4);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: no epoch under an epoch" jobs)
            0
            (List.length
               (List.filter
                  (fun (r : Trace.record) -> under_epoch r.Trace.parent)
                  epochs))))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "matrix: spec parsing round-trips" `Quick
      test_matrix_spec_parsing;
    Alcotest.test_case "matrix: full cross, unique names" `Quick
      test_matrix_cells_cross;
    Alcotest.test_case "matrix: specs compile, kill epochs distinct" `Quick
      test_matrix_specs;
    Alcotest.test_case "RESULT frame round-trips, rejects damage" `Quick
      test_result_roundtrip;
    Alcotest.test_case "small fleet end-to-end with kill chains" `Slow
      test_fleet_end_to_end;
    Alcotest.test_case "flight verdict after a survived kill chain" `Slow
      test_fleet_flight_verdict_after_kill_chain;
    Alcotest.test_case "store root claims and manifest mismatch" `Slow
      test_fleet_rejects_dirty_root_and_mismatch;
    Alcotest.test_case "store root made with its parents, or refused" `Slow
      test_fleet_root_made_or_refused;
    Alcotest.test_case "crash fleet epoch spans never nest" `Slow
      test_fleet_epoch_spans_never_nest;
    QCheck_alcotest.to_alcotest qcheck_fleet_determinism;
  ]
