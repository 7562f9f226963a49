(* poc-cli: command-line front end to the POC library.

   Subcommands:
     plan      generate a substrate + traffic matrix and run the auction
     auction   auction details (per-BP payments, PoB)
     econ      NN-vs-UR regime comparison for the reference economy
     market    multi-epoch bandwidth-market simulation
     chaos     supervised market under injected faults, with a durable
               journal and crash/resume support
     scrub     check and repair a run journal (segment classification,
               tail truncation, quarantine)
     forensics merge flight box, journal, scrub verdict and intake log
               into one ordered crash timeline
     fleet     thousands of seeded scenario-months under the chaos matrix
               (per-scenario journals under one store root, kill chains,
               byte-deterministic aggregate survival/PoB report)
     serve     long-lived supervised market daemon (Unix-socket control
               protocol, admission control, kill-under-load recovery)
     ctl       client for a running serve daemon
     profile   run N supervised epochs and print per-phase latencies
     topology  describe a generated substrate
     baseline  describe the traditional-Internet comparator

   market, chaos and profile accept --trace FILE.json (Chrome
   trace-event output for chrome://tracing / Perfetto) and
   --metrics FILE.prom (Prometheus text exposition). *)

open Cmdliner
module Planner = Poc_core.Planner
module Settlement = Poc_core.Settlement
module Vcg = Poc_auction.Vcg
module Acc = Poc_auction.Acceptability
module Wan = Poc_topology.Wan
module Fault = Poc_resilience.Fault
module Disk = Poc_resilience.Disk
module Journal = Poc_resilience.Journal
module Supervisor = Poc_resilience.Supervisor
module Black_box = Poc_resilience.Black_box
module Fleet = Poc_fleet.Driver
module Chaos_matrix = Poc_fleet.Chaos_matrix
module Forensics = Poc_forensics.Forensics
module Obs_log = Poc_obs.Log
module Trace = Poc_obs.Trace
module Metrics = Poc_obs.Metrics
module Pool = Poc_util.Pool

let setup_logs verbose =
  Obs_log.set_level (if verbose then Some Obs_log.Debug else Some Obs_log.Warn)

(* --- observability plumbing --------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~doc:"Write a Chrome trace-event JSON of the run to $(docv); open \
              it in chrome://tracing or https://ui.perfetto.dev.  Spans \
              cover every epoch phase; injected faults, ladder steps and \
              invariant violations appear as instant events.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE.prom"
        ~doc:"Write Prometheus text-format metrics (phase latency \
              histograms, auction/router/journal counters) to $(docv) when \
              the process exits.")

(* Both files are written from at_exit so an injected crash (exit 10)
   still leaves a usable trace: set_sink force-finishes the spans the
   crash cut open.  SIGTERM/SIGINT get the same treatment — at_exit
   never fires on a signal's default termination, so a killed run would
   otherwise leave nothing behind.  Returns a mid-run flush the daemon
   invokes continuously: it snapshots both sinks without detaching the
   trace sink (Chrome.write re-renders the whole buffer, so the file is
   complete, bracket-closed JSON after every call). *)
let setup_obs ~trace ~metrics =
  let chrome =
    Option.map
      (fun path ->
        let chrome = Trace.Chrome.create () in
        Trace.set_sink (Some (Trace.Chrome.sink chrome));
        (chrome, path))
      trace
  in
  let write_metrics () =
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (Metrics.to_prometheus Metrics.default)))
      metrics
  in
  let flush () =
    Option.iter (fun (chrome, path) -> Trace.Chrome.write chrome path) chrome;
    write_metrics ()
  in
  let finalized = ref false in
  let finalize () =
    if not !finalized then begin
      finalized := true;
      Option.iter
        (fun (chrome, path) ->
          Trace.set_sink None;
          Trace.Chrome.write chrome path)
        chrome;
      write_metrics ()
    end
  in
  at_exit finalize;
  let on_signal signum =
    finalize ();
    exit (if signum = Sys.sigint then 130 else 143)
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  flush

let phase_of_metric name =
  let prefix = "poc_phase_" and suffix = "_seconds" in
  let lp = String.length prefix and ls = String.length suffix in
  let n = String.length name in
  if
    n > lp + ls
    && String.sub name 0 lp = prefix
    && String.sub name (n - ls) ls = suffix
  then Some (String.sub name lp (n - lp - ls))
  else None

let print_phase_table () =
  let ms v = Printf.sprintf "%.2f" (v *. 1e3) in
  let rows =
    List.filter_map
      (fun (name, h) ->
        match phase_of_metric name with
        | Some phase when Metrics.Histogram.count h > 0 ->
          Some
            [
              phase;
              string_of_int (Metrics.Histogram.count h);
              Printf.sprintf "%.3f" (Metrics.Histogram.sum h);
              ms (Metrics.Histogram.p50 h);
              ms (Metrics.Histogram.p95 h);
              ms (Metrics.Histogram.p99 h);
              ms (Metrics.Histogram.max_observed h);
            ]
        | Some _ | None -> None)
      (Metrics.histograms Metrics.default)
  in
  if rows <> [] then begin
    print_endline "\nper-phase wall clock:";
    Poc_util.Table.print
      ~align:
        Poc_util.Table.[ Left; Right; Right; Right; Right; Right; Right ]
      ~header:[ "phase"; "count"; "total s"; "p50 ms"; "p95 ms"; "p99 ms"; "max ms" ]
      rows
  end

(* Shared options. *)
let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let sites_arg =
  Arg.(
    value & opt int 34
    & info [ "sites" ] ~docv:"N" ~doc:"Number of cities in the substrate.")

let bps_arg =
  Arg.(
    value & opt int 10
    & info [ "bps" ] ~docv:"N" ~doc:"Number of bandwidth providers.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.recommended_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the auction layer (default: the runtime's \
              recommended domain count for this machine).  Auction \
              outcomes, payments and journal bytes are identical at every \
              value; $(b,--jobs 1) is the serial path.")

let rule_arg =
  let rules =
    [ ("load", Acc.Handle_load); ("single-failure", Acc.Single_link_failure);
      ("per-pair-failure", Acc.Per_pair_failure) ]
  in
  Arg.(
    value
    & opt (enum rules) Acc.Handle_load
    & info [ "rule" ] ~docv:"RULE"
        ~doc:"Acceptability rule: $(b,load), $(b,single-failure) or \
              $(b,per-pair-failure).")

let config ~sites ~bps ~seed ~rule =
  Planner.scaled_config ~sites ~bps
    { Planner.default_config with Planner.seed; rule }

let build_plan ~sites ~bps ~seed ~rule =
  match Planner.build (config ~sites ~bps ~seed ~rule) with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "planning failed: %s\n" msg;
    exit 1

(* --- plan ---------------------------------------------------------------- *)

let plan_cmd =
  let run verbose seed sites bps rule =
    setup_logs verbose;
    let plan = build_plan ~sites ~bps ~seed ~rule in
    Printf.printf "substrate: %s\n" (Wan.summary plan.Planner.wan);
    Printf.printf "traffic:   %s\n"
      (Format.asprintf "%a" Poc_traffic.Matrix.pp plan.Planner.matrix);
    let o = plan.Planner.outcome in
    Printf.printf "rule:      %s\n" (Acc.name rule);
    Printf.printf "selected:  %d links, C(SL) = $%.0f, POC spend = $%.0f\n"
      (List.length o.Vcg.selection.Vcg.selected)
      o.Vcg.selection.Vcg.cost o.Vcg.total_payment;
    Printf.printf "backbone:  %s\n"
      (Format.asprintf "%a" Poc_util.Stats.pp_summary
         (Planner.utilization_summary plan));
    let ledger = Settlement.of_plan plan () in
    Printf.printf "price:     $%.2f per Gbps-month (POC net $%.4f)\n"
      ledger.Settlement.usage_price (Settlement.poc_net ledger)
  in
  let term =
    Term.(const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ rule_arg)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Plan a POC backbone end-to-end") term

(* --- auction -------------------------------------------------------------- *)

let auction_cmd =
  let run verbose seed sites bps rule =
    setup_logs verbose;
    let plan = build_plan ~sites ~bps ~seed ~rule in
    let o = plan.Planner.outcome in
    let rows =
      Array.to_list o.Vcg.bp_results
      |> List.filter (fun (r : Vcg.bp_result) -> r.Vcg.payment > 0.0)
      |> List.map (fun (r : Vcg.bp_result) ->
             [
               plan.Planner.wan.Wan.bps.(r.Vcg.bp).Wan.bp_name;
               string_of_int (List.length r.Vcg.selected_links);
               Printf.sprintf "%.0f" r.Vcg.bid_cost;
               Printf.sprintf "%.0f" r.Vcg.payment;
               Printf.sprintf "%.4f" r.Vcg.pob;
             ])
    in
    Poc_util.Table.print
      ~align:
        Poc_util.Table.[ Left; Right; Right; Right; Right ]
      ~header:[ "BP"; "links"; "bid $"; "payment $"; "PoB" ]
      rows;
    Printf.printf "virtual links: $%.0f contracted\n" o.Vcg.virtual_cost
  in
  let term =
    Term.(const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ rule_arg)
  in
  Cmd.v (Cmd.info "auction" ~doc:"Show the VCG auction outcome") term

(* --- econ ------------------------------------------------------------------ *)

let econ_cmd =
  let run verbose =
    setup_logs verbose;
    let module Regime = Poc_econ.Regime in
    let economy = Regime.default_economy in
    List.iter
      (fun regime ->
        let o = Regime.evaluate economy regime in
        Printf.printf "%-14s social %8.3f  consumer %8.3f  CSP %8.3f  LMP fees %8.3f\n"
          (Regime.regime_name regime) o.Regime.total_social
          o.Regime.total_consumer o.Regime.total_csp_profit
          o.Regime.total_lmp_fee_revenue)
      [ Regime.Nn; Regime.Ur_bargained; Regime.Ur_unilateral ]
  in
  let term = Term.(const run $ verbose_arg) in
  Cmd.v (Cmd.info "econ" ~doc:"NN vs UR regime comparison") term

(* --- market / chaos -------------------------------------------------------- *)

let epochs_arg =
  Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"N" ~doc:"Months to simulate.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:"Write a crash-safe journal of the run to the store directory \
              $(docv) (created if missing; a previous run's segments in it \
              are cleared); a killed run can be finished later with \
              $(b,--resume).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"PATH"
        ~doc:"Resume a crashed run from the journal store at $(docv) and \
              append to it.  Fails with a clear error if the journal is \
              corrupt, complete, a plain file (old single-file journals are \
              not read), or was written under a different configuration.")

let segment_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment-bytes" ] ~docv:"N"
        ~doc:"Rotate the journal store past $(docv) bytes per segment; \
              history older than the newest durable checkpoint is \
              garbage-collected at rotation.  Without it the budget is \
              unbounded: the whole run stays in one segment.  \
              $(b,--resume) reads the budget from the store.")

let flight_arg =
  Arg.(
    value & flag
    & info [ "flight" ]
        ~doc:"Attach a black-box flight recorder: a bounded $(b,FLIGHT) \
              file inside the journal store, flushed at every phase and \
              fault point, readable after any crash with $(b,poc-cli \
              forensics).  Journal bytes are identical with and without \
              it.")

(* Where a run's box lives; opening makes the parent directory, so a
   fresh store can receive its FLIGHT before the journal opens the
   directory.  A resume continues the box its earlier attempts left. *)
let flight_box ~flight ~resume path =
  if not flight then None
  else
    let open_box = if resume then Black_box.reopen else Black_box.create in
    Some (open_box (Forensics.flight_path_for path))

(* Run the supervised loop, honoring --journal/--resume.  Exit codes:
   10 for an injected crash (the journal is left ready to resume), 1
   for a journal that cannot be written or resumed. *)
let run_supervised ~journal ~resume ?segment_bytes ?pool ?(flight = false) plan
    ~market ~schedule =
  match resume with
  | Some path -> (
    let flight = flight_box ~flight ~resume:true path in
    match
      Supervisor.resume ~journal:path ?flight ?pool plan ~market ~schedule
    with
    | Ok r ->
      Printf.eprintf "resumed from %s\n" path;
      r
    | Error msg ->
      Printf.eprintf "resume failed: %s\n" msg;
      exit 1)
  | None -> (
    try
      let flight = Option.bind journal (flight_box ~flight ~resume:false) in
      Supervisor.run ?journal ?flight ?segment_bytes ?pool plan ~market
        ~schedule
    with
    | Supervisor.Injected_crash { epoch; phase } ->
      Printf.eprintf
        "injected crash at epoch %d (%s); finish the run with --resume\n" epoch
        (Fault.phase_to_string phase);
      exit 10
    | Sys_error msg ->
      (* e.g. --journal naming a plain file: a store is a directory *)
      Printf.eprintf "journal failed: %s\n" msg;
      exit 1)

let print_supervised (report : Supervisor.report) =
  print_string (Supervisor.render_epochs report);
  print_endline "\nincident log:";
  print_string (Supervisor.render_incidents report);
  List.iter
    (fun (v : Supervisor.violation) ->
      Printf.printf "INVARIANT VIOLATED at epoch %d: %s (%s)\n"
        v.Supervisor.epoch v.Supervisor.invariant v.Supervisor.detail)
    report.Supervisor.violations

let no_feas_cache_arg =
  Arg.(
    value & flag
    & info [ "no-feas-cache" ]
        ~doc:"Turn off all memoization of feasibility verdicts and \
              selection costs, the shared cache included (see \
              docs/SCALING.md).  Outcomes, payments and journal bytes \
              are identical either way; only the work counters and \
              wall-clock time change.")

let market_cmd =
  let run verbose seed sites bps epochs jobs journal resume segment_bytes
      flight trace metrics no_feas_cache =
    setup_logs verbose;
    if no_feas_cache then Poc_auction.Feascache.set_enabled false;
    let (_ : unit -> unit) = setup_obs ~trace ~metrics in
    let plan = build_plan ~sites ~bps ~seed ~rule:Acc.Handle_load in
    let module Epochs = Poc_market.Epochs in
    let market = { Epochs.default_config with Epochs.epochs; seed } in
    Pool.with_pool ~jobs (fun pool ->
        print_supervised
          (run_supervised ~journal ~resume ?segment_bytes ?pool ~flight plan
             ~market ~schedule:Fault.none));
    print_phase_table ()
  in
  let term =
    Term.(
      const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ epochs_arg
      $ jobs_arg $ journal_arg $ resume_arg $ segment_bytes_arg $ flight_arg
      $ trace_arg $ metrics_arg $ no_feas_cache_arg)
  in
  Cmd.v (Cmd.info "market" ~doc:"Multi-epoch bandwidth market") term

(* Fault-injection options, shared by chaos and serve. *)
let crash_conv =
    let parse s =
      match String.index_opt s ':' with
      | None -> Error (`Msg "expected EPOCH:PHASE")
      | Some i -> (
        let e = String.sub s 0 i in
        let p = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt e, Fault.phase_of_string p) with
        | Some e, Some p -> Ok (e, p)
        | None, _ -> Error (`Msg (Printf.sprintf "bad epoch %S" e))
        | _, None ->
          Error
            (`Msg
              (Printf.sprintf
                 "bad phase %S: expected pre_auction, pre_settle or post_settle"
                 p)))
    in
    let print ppf (e, p) =
      Format.fprintf ppf "%d:%s" e (Fault.phase_to_string p)
    in
    Arg.conv (parse, print)

let crash_arg =
    Arg.(
      value & opt_all crash_conv []
      & info [ "crash" ] ~docv:"EPOCH:PHASE"
          ~doc:"Inject a process crash at the given epoch and phase \
                ($(b,pre_auction), $(b,pre_settle) or $(b,post_settle)).  \
                The process exits with code 10 and the journal is left \
                ready for $(b,--resume).  Repeatable.")

let disk_fault_conv =
    (* EPOCH:PHASE:KIND[:ARG] — the fault kind may carry its own
       colon-separated argument, so only the first two colons split. *)
    let parse s =
      match String.split_on_char ':' s with
      | e :: p :: (_ :: _ as rest) -> (
        let f = String.concat ":" rest in
        match
          (int_of_string_opt e, Fault.phase_of_string p, Disk.fault_of_string f)
        with
        | Some e, Some p, Ok f -> Ok (e, p, f)
        | None, _, _ -> Error (`Msg (Printf.sprintf "bad epoch %S" e))
        | _, None, _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "bad phase %S: expected pre_auction, pre_settle or post_settle"
                 p))
        | _, _, Error msg -> Error (`Msg msg))
      | _ -> Error (`Msg "expected EPOCH:PHASE:KIND[:ARG]")
    in
    let print ppf (e, p, f) =
      Format.fprintf ppf "%d:%s:%s" e (Fault.phase_to_string p)
        (Disk.fault_to_string f)
    in
    Arg.conv (parse, print)

let disk_fault_arg =
    Arg.(
      value & opt_all disk_fault_conv []
      & info [ "disk-fault" ] ~docv:"EPOCH:PHASE:KIND[:ARG]"
          ~doc:"Inject a power-cut with storage damage at the given epoch \
                and phase.  KIND is $(b,short_write)[:DROP], \
                $(b,torn_rename), $(b,lying_fsync)[:DROP] or \
                $(b,corrupt_byte)[:SEED].  The process exits with code 10; \
                finish with $(b,--resume), running $(b,poc-cli scrub) first \
                if the resume reports unreadable segments.  Repeatable.")

let fault_seed_arg =
  Arg.(
    value & opt int 2020
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for compiling the fault schedule.")

(* Crash + storage specs shared by chaos and serve; the stress specs
   (bankruptcy, link failures, recalls) stay chaos-only. *)
let injected_specs ~crashes ~disk_faults =
  List.map (fun (at_epoch, phase) -> Fault.Crash { at_epoch; phase }) crashes
  @ List.map
      (fun (at_epoch, phase, fault) -> Fault.Storage { at_epoch; phase; fault })
      disk_faults

let chaos_cmd =
  let run verbose seed sites bps epochs jobs fault_seed crashes disk_faults
      journal resume segment_bytes flight trace metrics =
    setup_logs verbose;
    let (_ : unit -> unit) = setup_obs ~trace ~metrics in
    let plan = build_plan ~sites ~bps ~seed ~rule:Acc.Handle_load in
    let module Epochs = Poc_market.Epochs in
    let biggest =
      match Wan.bps_by_size plan.Planner.wan with b :: _ -> b | [] -> 0
    in
    let n_bps = Array.length plan.Planner.wan.Wan.bps in
    let specs =
      [
        Fault.Bp_bankruptcy { at_epoch = 3; bp = biggest };
        Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 };
      ]
      @ List.init n_bps (fun bp ->
            Fault.Capacity_recall
              { at_epoch = 5; bp; fraction = 1.0; duration = 1 })
      @ injected_specs ~crashes ~disk_faults
    in
    let schedule =
      match Fault.compile plan.Planner.wan ~seed:fault_seed specs with
      | Ok s -> s
      | Error msg ->
        Printf.eprintf "bad fault schedule: %s\n" msg;
        exit 1
    in
    let market = { Epochs.default_config with Epochs.epochs; seed } in
    Pool.with_pool ~jobs (fun pool ->
        print_supervised
          (run_supervised ~journal ~resume ?segment_bytes ?pool ~flight plan
             ~market ~schedule));
    print_phase_table ()
  in
  let term =
    Term.(
      const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ epochs_arg
      $ jobs_arg $ fault_seed_arg $ crash_arg $ disk_fault_arg $ journal_arg
      $ resume_arg $ segment_bytes_arg $ flight_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Supervised market under injected faults (journal + crash/resume)")
    term

(* --- scrub ------------------------------------------------------------------ *)

let scrub_cmd =
  let journal_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:"Journal store directory to scrub.  A plain file (an old \
                single-file journal) is refused.")
  in
  let dry_run_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Classify every segment and print the report without \
                modifying the store.")
  in
  let run verbose path dry_run =
    setup_logs verbose;
    match Journal.scrub ~dry_run path with
    | Error msg ->
      Printf.eprintf "scrub failed: %s\n" msg;
      exit 1
    | Ok report ->
      print_string (Journal.scrub_to_json report);
      (* Exit 0: the store resumes (possibly from an older checkpoint).
         Exit 3: nothing durable survives — start the run over. *)
      if not report.Journal.recovered then exit 3
  in
  let term = Term.(const run $ verbose_arg $ journal_pos $ dry_run_arg) in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Check and repair a run journal store: classify each segment as \
             clean, torn-tail, corrupt-interior or unreadable; truncate \
             damage at the last good frame; quarantine unreadable segments; \
             print a machine-readable JSON report.")
    term

(* --- forensics -------------------------------------------------------------- *)

let forensics_cmd =
  let store_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE"
          ~doc:"The dead run's journal store directory, e.g. a daemon \
                $(b,ROOT)/store.  The flight box inside it and the intake \
                log next to it are found automatically.")
  in
  let flight_path_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"PATH"
          ~doc:"Flight box to read (default: $(b,STORE)/FLIGHT).")
  in
  let intake_path_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "intake" ] ~docv:"PATH"
          ~doc:"Intake log to read (default: $(b,intake.log) next to \
                $(b,STORE)).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the timeline as one JSON document.")
  in
  let run verbose store flight intake json =
    setup_logs verbose;
    match Forensics.analyze ?flight ?intake store with
    | Error msg ->
      Printf.eprintf "forensics: %s\n" msg;
      exit 1
    | Ok a ->
      if json then print_string (Forensics.to_json a)
      else print_string (Forensics.render a)
  in
  let term =
    Term.(
      const run $ verbose_arg $ store_pos $ flight_path_arg $ intake_path_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:"Reconstruct a crashed run's last moments: merge the flight \
             recorder box, the journal's durable epoch records, a dry-run \
             scrub verdict and the daemon intake log into one ordered \
             incident timeline, naming the epoch and phase in flight when \
             the process died.  Reads everything, modifies nothing.")
    term

(* --- fleet ------------------------------------------------------------------ *)

let fleet_cmd =
  let months_arg =
    Arg.(
      value & opt int 1000
      & info [ "months" ] ~docv:"N"
          ~doc:"Scenario-months in the fleet.  Each is an independent \
                supervised market run with its own seeds, fault schedule \
                and journal store.")
  in
  let matrix_arg =
    Arg.(
      value & opt string "full"
      & info [ "matrix" ] ~docv:"SPEC"
          ~doc:"Chaos matrix: $(b,none), $(b,full), or a $(b,+)-joined \
                combination of $(b,crash) (process death at every epoch \
                phase), $(b,storage) (power-cut disk faults of all four \
                kinds) and $(b,degrade) (market-stress schedules).  Cells \
                cycle over the fleet, baseline included.")
  in
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"ROOT"
          ~doc:"Fleet store root: a $(b,FLEET) manifest plus one journal \
                store directory per scenario.  A fresh run requires a \
                root with no manifest; $(b,--resume) requires one.")
  in
  let fleet_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Finish an interrupted fleet: completed scenarios reload \
                from their $(b,RESULT) frames, the rest re-run.  The \
                aggregate report is byte-identical to an uninterrupted \
                run.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:"Stop the fleet (exit 10) once $(docv) scenarios completed \
                in this invocation — the smoke test's SIGKILL stand-in.")
  in
  let topologies_arg =
    Arg.(
      value & opt int 8
      & info [ "topologies" ] ~docv:"N"
          ~doc:"Distinct topology seeds cycled across the fleet (plans are \
                built once per topology).")
  in
  let fleet_sites_arg =
    Arg.(
      value & opt int 16
      & info [ "sites" ] ~docv:"N" ~doc:"Cities per scenario substrate.")
  in
  let fleet_bps_arg =
    Arg.(
      value & opt int 5
      & info [ "bps" ] ~docv:"N" ~doc:"Bandwidth providers per scenario.")
  in
  let fleet_epochs_arg =
    Arg.(
      value & opt int 6
      & info [ "epochs" ] ~docv:"N"
          ~doc:"Market horizon per scenario (>= 4: the matrix places its \
                crash mid-horizon and its storage fault on the last-but-one \
                epoch).")
  in
  let fleet_segment_arg =
    Arg.(
      value & opt int 2048
      & info [ "segment-bytes" ] ~docv:"N"
          ~doc:"Journal rotation budget per scenario store.")
  in
  let snapshot_arg =
    Arg.(
      value & opt int 2
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Carry-forward snapshot cadence inside each scenario \
                journal.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the aggregate report as JSON (exactly the bytes the \
                determinism guarantee covers) instead of the human \
                summary.")
  in
  let run verbose months matrix store resume kill_after topologies sites bps
      epochs segment_bytes snapshot_every seed jobs json flight trace metrics
      =
    setup_logs verbose;
    let (_ : unit -> unit) = setup_obs ~trace ~metrics in
    match Chaos_matrix.axes_of_spec matrix with
    | Error msg ->
      Printf.eprintf "bad --matrix: %s\n" msg;
      exit 1
    | Ok axes ->
      let cfg =
        {
          Fleet.months;
          axes;
          seed;
          topologies;
          sites;
          bps;
          epochs;
          segment_bytes;
          snapshot_every;
          store;
          flight;
        }
      in
      Pool.with_pool ~jobs (fun pool ->
          match Fleet.run ?pool ~resume ?kill_after cfg with
          | Error msg ->
            Printf.eprintf "fleet failed: %s\n" msg;
            exit 1
          | Ok (Fleet.Interrupted { completed_months }) ->
            Printf.eprintf
              "fleet stopped after %d scenario-months; finish with --resume\n"
              completed_months;
            exit 10
          | Ok (Fleet.Finished report) ->
            if json then print_string (Fleet.report_to_json report)
            else print_string (Fleet.render report);
            (* Wall-clock rollup: a separate artifact, never part of
               the byte-deterministic report above. *)
            let rollup = Filename.concat store "LATENCY.json" in
            (try
               let oc = open_out rollup in
               output_string oc (Fleet.latency_rollup_json cfg);
               close_out oc
             with Sys_error msg ->
               Printf.eprintf "fleet: latency rollup not written: %s\n" msg);
            let unrecovered =
              List.exists
                (fun ((_ : Fleet.scenario), (o : Fleet.outcome)) ->
                  not o.Fleet.completed)
                report.Fleet.outcomes
            in
            if unrecovered then exit 3)
  in
  let term =
    Term.(
      const run $ verbose_arg $ months_arg $ matrix_arg $ store_arg
      $ fleet_resume_arg $ kill_after_arg $ topologies_arg $ fleet_sites_arg
      $ fleet_bps_arg $ fleet_epochs_arg $ fleet_segment_arg $ snapshot_arg
      $ seed_arg $ jobs_arg $ json_arg $ flight_arg $ trace_arg $ metrics_arg)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "$(b,0) every scenario-month survived to its horizon.";
      `P
        "$(b,10) the fleet was stopped mid-run ($(b,--kill-after) or an \
         external kill landed between scenarios); the store root resumes \
         with $(b,--resume).  Mirrors $(b,chaos)'s injected-crash exit.";
      `P
        "$(b,3) at least one scenario could not be driven to its horizon \
         even through scrub, resume and restart.  Mirrors $(b,scrub)'s \
         unrecoverable-store exit.";
      `P "$(b,1) bad configuration, unplannable topology, or store/manifest \
          mismatch.";
    ]
  in
  Cmd.v
    (Cmd.info "fleet" ~man
       ~doc:"Thousands of seeded scenario-months under the chaos matrix: \
             whole supervised runs sharded across the domain pool, \
             per-scenario journal stores under one store root, kill \
             chains (crash and power-cut faults survived via scrub + \
             resume inside the run), and a byte-deterministic aggregate \
             survival/PoB report at every $(b,--jobs) value.")
    term

(* --- serve / ctl ------------------------------------------------------------ *)

let serve_cmd =
  let root_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Daemon state directory: run 0's journal store lives at \
                $(docv)/store, the intake log at $(docv)/intake.log and the \
                control socket at $(docv)/ctl.sock.  Created if missing.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Control socket path (default: $(b,ROOT)/ctl.sock).")
  in
  let serve_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Recover the journal at $(b,ROOT)/store and the intake log, \
                re-apply logged updates at their recorded epochs, and \
                continue serving.  The recovered store is byte-identical to \
                an uninterrupted run fed the same requests.")
  in
  let high_water_arg =
    Arg.(
      value & opt int 64
      & info [ "high-water" ] ~docv:"N"
          ~doc:"Admission queue bound: past $(docv) queued updates, new ones \
                answer BUSY with an escalating retry-after, unless they \
                outrank (strictly higher priority) the lowest-priority \
                queued update, which is then shed to admit them.")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"Serve the live Prometheus registry over HTTP on \
                127.0.0.1:$(docv) ($(b,GET /metrics)).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a connection that holds a partial request frame \
                longer than $(docv) seconds.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 4
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Journal snapshot cadence in epochs.")
  in
  let serve_segment_arg =
    Arg.(
      value & opt int 65536
      & info [ "segment-bytes" ] ~docv:"N"
          ~doc:"Rotation budget of every run's journal store.")
  in
  let runs_arg =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"N"
          ~doc:"Open $(docv) concurrent runs at startup (run 0 at \
                $(b,ROOT), further runs under $(b,ROOT)/runs/).  Clients \
                address them by run id ($(b,ctl --run) or a $(b,RUN <id>) \
                prefix); more runs open live via $(b,OPEN).")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 8
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Upper bound on concurrently open runs; $(b,OPEN) past it \
                answers BUSY.")
  in
  let fault_run_arg =
    Arg.(
      value & opt int 0
      & info [ "fault-run" ] ~docv:"ID"
          ~doc:"The run whose schedule carries the injected \
                $(b,--crash-at)/$(b,--disk-fault) specs (default run 0); \
                every other run gets a fault-free schedule — the \
                fault-isolation drill.")
  in
  let attempt_cap_arg =
    Arg.(
      value & opt int 3
      & info [ "attempt-cap" ] ~docv:"N"
          ~doc:"Restart-with-backoff attempts a failing run gets before it \
                is quarantined (store left intact for $(b,forensics), \
                requests answered GONE).")
  in
  let run verbose seed sites bps epochs jobs fault_seed crashes disk_faults
      root socket resume high_water metrics_port idle_timeout snapshot_every
      segment_bytes flight trace metrics runs max_runs fault_run attempt_cap =
    setup_logs verbose;
    let flush = setup_obs ~trace ~metrics in
    let plan = build_plan ~sites ~bps ~seed ~rule:Acc.Handle_load in
    let module Epochs = Poc_market.Epochs in
    let market = { Epochs.default_config with Epochs.epochs; seed } in
    let fault_specs = injected_specs ~crashes ~disk_faults in
    let socket =
      Option.value socket ~default:(Filename.concat root "ctl.sock")
    in
    let code =
      Pool.with_pool ~jobs (fun pool ->
          match
            Poc_daemon.Registry.create ~snapshot_every ~segment_bytes ?pool
              ~flight ~high_water ~attempt_cap ~resume ~runs ~max_runs
              ~fault_run ~fault_specs ~fault_seed ~root plan ~market ()
          with
          | Error msg ->
            Printf.eprintf "serve: %s\n" msg;
            1
          | Ok registry ->
            Poc_daemon.Registry.set_flush registry flush;
            Printf.eprintf "%s\nlistening on %s\n%!"
              (Poc_daemon.Registry.banner registry)
              socket;
            Poc_daemon.Server.serve
              { Poc_daemon.Server.socket_path = socket; metrics_port;
                idle_timeout }
              registry)
    in
    exit code
  in
  let term =
    Term.(
      const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ epochs_arg
      $ jobs_arg $ fault_seed_arg $ crash_arg $ disk_fault_arg $ root_arg
      $ socket_arg $ serve_resume_arg $ high_water_arg $ metrics_port_arg
      $ idle_timeout_arg $ snapshot_every_arg $ serve_segment_arg $ flight_arg
      $ trace_arg $ metrics_arg $ runs_arg $ max_runs_arg $ fault_run_arg
      $ attempt_cap_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the market as a long-lived multi-run daemon: a supervised \
             run registry (per-run journal, intake log and failure domain; \
             failing runs restart with backoff, then quarantine) behind one \
             checksummed framed protocol on a Unix socket (run-addressed \
             BID/MATRIX/EPOCH/STATUS/METRICS/SCRUB/QUIESCE/SHUTDOWN plus \
             OPEN/CLOSE/RUNS; $(b,poc-cli ctl) is its client), bounded \
             admission queues with backpressure and shedding, live \
             Prometheus endpoint, and kill-under-load recovery via \
             $(b,--resume).")
    term

let ctl_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's control socket.")
  in
  let commands_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"COMMAND"
          ~doc:"Requests to send, one per argument (quote each).  With no \
                arguments, requests are read from stdin, one per line.  \
                Each is parsed here and sent as one frame; one that does \
                not parse is reported on stderr and never sent.")
  in
  let run_id_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "run" ] ~docv:"ID"
          ~doc:"Address plain requests to run $(docv) by prefixing \
                $(b,RUN ID); lines already carrying a $(b,RUN) prefix or a \
                registry verb ($(b,OPEN)/$(b,CLOSE)/$(b,RUNS)) pass \
                through unchanged.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up (exit 6) when the daemon holds a response open \
                longer than $(docv) seconds — a wedged daemon cannot hang \
                ctl.")
  in
  let busy_retries_arg =
    Arg.(
      value & opt int 5
      & info [ "busy-retries" ] ~docv:"N"
          ~doc:"Re-send a request answered BUSY up to $(docv) times, \
                sleeping the daemon's escalating retry_after plus local \
                jitter between attempts.")
  in
  let run verbose socket run_id timeout busy_retries commands =
    setup_logs verbose;
    let module Protocol = Poc_daemon.Protocol in
    let module Framing = Poc_daemon.Framing in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "ctl: cannot connect to %s: %s\n" socket
         (Unix.error_message e);
       exit 1);
    let write_all s =
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let rec go off =
        if off < n then go (off + Unix.write fd b off (n - off))
      in
      try go 0
      with Unix.Unix_error _ ->
        prerr_endline "ctl: connection closed by daemon";
        exit 4
    in
    let buf = Buffer.create 256 in
    let pending : Poc_daemon.Framing.item Queue.t = Queue.create () in
    (* Deadline-bounded reads: ctl never blocks past --timeout on a
       wedged socket. *)
    let fill deadline =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then `Timeout
      else
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
        | [], _, _ -> `Timeout
        | _ -> (
          let b = Bytes.create 4096 in
          match Unix.read fd b 0 4096 with
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes buf b 0 n;
            `Again
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
            `Eof)
    in
    let die_timeout () =
      Printf.eprintf "ctl: timed out after %.1fs\n" timeout;
      exit 6
    and die_eof () =
      (* The daemon died mid-request — the kill-under-load drill.
         Distinct exit code so scripts can tell "refused" from
         "gone". *)
      prerr_endline "ctl: connection closed by daemon";
      exit 4
    in
    let rec next_reply deadline =
      match Queue.take_opt pending with
      | Some (Framing.Reply r) -> r
      | Some (Framing.Msg _) -> next_reply deadline (* daemons don't ask *)
      | None -> (
        let s = Buffer.contents buf in
        let { Framing.items; consumed; dropped = _ } =
          Framing.decode_stream s ~pos:0
        in
        if consumed > 0 then begin
          Buffer.clear buf;
          Buffer.add_substring buf s consumed (String.length s - consumed)
        end;
        List.iter (fun i -> Queue.add i pending) items;
        if not (Queue.is_empty pending) then next_reply deadline
        else
          match fill deadline with
          | `Again -> next_reply deadline
          | `Timeout -> die_timeout ()
          | `Eof -> die_eof ())
    in
    (* Deterministic-enough client jitter: decorrelates a herd of
       retrying ctls without threading a seed through the CLI. *)
    let jstate = ref ((Unix.getpid () * 2654435761) land 0x3FFFFFFF) in
    let jitter () =
      jstate := ((!jstate * 1103515245) + 12345) land 0x3FFFFFFF;
      float_of_int (!jstate land 0xFFFF) /. 65536.0
    in
    let retry_after line =
      String.split_on_char ' ' line
      |> List.find_map (fun tok ->
             if String.length tok > 12 && String.sub tok 0 12 = "retry_after="
             then
               float_of_string_opt
                 (String.sub tok 12 (String.length tok - 12))
             else None)
    in
    let failures = ref 0 and gone = ref false in
    let scope line =
      match run_id with
      | None -> line
      | Some id -> (
        match String.split_on_char ' ' (String.trim line) with
        | ("RUN" | "OPEN" | "CLOSE" | "RUNS") :: _ -> line
        | _ -> Printf.sprintf "RUN %d %s" id line)
    in
    let has_prefix p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    let rec send attempt cmd =
      write_all (Framing.encode_msg (Framing.of_command cmd));
      let deadline = Unix.gettimeofday () +. timeout in
      let rec read_response () =
        let r = next_reply deadline in
        let text = Protocol.payload r.Framing.line in
        print_endline text;
        if not r.Framing.final then read_response ()
        else if has_prefix "BUSY" text && attempt < busy_retries then begin
          let delay = Option.value (retry_after text) ~default:0.05 in
          Unix.sleepf (delay *. (1.0 +. (0.25 *. jitter ())));
          send (attempt + 1) cmd
        end
        else begin
          if has_prefix "ERR" text then incr failures;
          if has_prefix "GONE" text then gone := true
        end
      in
      read_response ()
    in
    let send line =
      (* An unparseable line never reaches the wire: nothing to read. *)
      match Protocol.parse_command line with
      | Error msg ->
        Printf.eprintf "ctl: parse: %s\n" msg;
        incr failures
      | Ok cmd -> send 0 cmd
    in
    (match commands with
    | [] -> (
      try
        while true do
          let line = input_line stdin in
          if String.trim line <> "" then send (scope line)
        done
      with End_of_file -> ())
    | cmds ->
      List.iter (fun c -> if String.trim c <> "" then send (scope c)) cmds);
    if !gone then exit 5 else if !failures > 0 then exit 2
  in
  let term =
    Term.(
      const run $ verbose_arg $ socket_arg $ run_id_arg $ timeout_arg
      $ busy_retries_arg $ commands_arg)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "$(b,0) every request answered OK (BUSY responses that cleared \
          within $(b,--busy-retries) count as OK).";
      `P "$(b,2) at least one request answered ERR, or did not parse.";
      `P "$(b,4) the daemon vanished mid-request (connection closed).";
      `P "$(b,5) at least one request answered GONE: the addressed run is \
          quarantined or closed.  Its store is intact — inspect it with \
          $(b,poc-cli forensics).";
      `P "$(b,6) the daemon held a response open past $(b,--timeout).";
      `P "$(b,1) could not connect to the socket.";
    ]
  in
  Cmd.v
    (Cmd.info "ctl" ~man
       ~doc:"Send control requests to a running $(b,poc-cli serve) daemon \
             and print the responses.  Requests may address any run \
             ($(b,--run) or a $(b,RUN <id>) prefix) and travel as \
             checksummed frames; BUSY answers retry with the daemon's \
             escalating retry-after plus client-side jitter.")
    term

(* --- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let run verbose seed sites bps epochs jobs rule trace metrics =
    setup_logs verbose;
    let (_ : unit -> unit) = setup_obs ~trace ~metrics in
    let plan = build_plan ~sites ~bps ~seed ~rule in
    let module Epochs = Poc_market.Epochs in
    let market = { Epochs.default_config with Epochs.epochs; seed } in
    let report =
      Pool.with_pool ~jobs (fun pool ->
          Supervisor.run ?pool plan ~market ~schedule:Fault.none)
    in
    let healthy =
      List.length
        (List.filter
           (fun (er : Supervisor.epoch_report) ->
             er.Supervisor.status = Supervisor.Healthy)
           report.Supervisor.epochs)
    in
    let total_s =
      match
        List.assoc_opt "poc_epoch_seconds"
          (Metrics.histograms Metrics.default)
      with
      | Some h -> Metrics.Histogram.sum h
      | None -> 0.0
    in
    Printf.printf "profiled %d epochs (%d healthy) under rule %s in %.2fs\n"
      (List.length report.Supervisor.epochs)
      healthy (Acc.name rule) total_s;
    print_phase_table ();
    let counter_rows =
      List.filter_map
        (fun (name, c) ->
          let v = Metrics.Counter.value c in
          if v > 0.0 then Some [ name; Printf.sprintf "%.0f" v ] else None)
        (Metrics.counters Metrics.default)
    in
    if counter_rows <> [] then begin
      print_endline "\nwork counters:";
      Poc_util.Table.print
        ~align:Poc_util.Table.[ Left; Right ]
        ~header:[ "counter"; "value" ] counter_rows
    end
  in
  let term =
    Term.(
      const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ epochs_arg
      $ jobs_arg $ rule_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run N supervised epochs and print the per-phase latency table")
    term

(* --- topology ------------------------------------------------------------------ *)

let topology_cmd =
  let run verbose seed sites bps scale =
    setup_logs verbose;
    let params =
      if scale then Wan.scale_params
      else (config ~sites ~bps ~seed ~rule:Acc.Handle_load).Planner.params
    in
    let t0 = Unix.gettimeofday () in
    let wan = Wan.generate ~params ~seed () in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "%s\n" (Wan.summary wan);
    Printf.printf "generated in %.1fs\n\n" dt;
    Array.iter
      (fun (bp : Wan.bp) ->
        Printf.printf "%-8s %3d sites, %4d links, share %5.1f%%\n" bp.Wan.bp_name
          (Array.length bp.Wan.footprint)
          (Array.length bp.Wan.link_ids)
          (100.0 *. bp.Wan.share))
      wan.Wan.bps
  in
  let scale_arg =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Generate the continent-scale preset (~10^5 offered links, \
             ~100 BPs); $(b,--sites)/$(b,--bps) are ignored.")
  in
  let term =
    Term.(const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ scale_arg)
  in
  Cmd.v (Cmd.info "topology" ~doc:"Describe a generated substrate") term

(* --- export ----------------------------------------------------------------------- *)

let export_cmd =
  let out_arg =
    Arg.(value & opt string "poc" & info [ "out" ] ~docv:"PREFIX"
           ~doc:"Output file prefix (writes PREFIX.graphml, PREFIX-links.csv, PREFIX-sites.csv).")
  in
  let run verbose seed sites bps rule out =
    setup_logs verbose;
    let plan = build_plan ~sites ~bps ~seed ~rule in
    let wan = plan.Planner.wan in
    let selected = Planner.backbone_enabled plan in
    let module Export = Poc_topology.Export in
    Export.write_file (out ^ ".graphml") (Export.graphml wan ~selected ());
    Export.write_file (out ^ "-links.csv") (Export.links_csv wan);
    Export.write_file (out ^ "-sites.csv") (Export.sites_csv wan);
    Printf.printf "wrote %s.graphml, %s-links.csv, %s-sites.csv\n" out out out
  in
  let term =
    Term.(const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ rule_arg
          $ out_arg)
  in
  Cmd.v (Cmd.info "export" ~doc:"Export the substrate and selection (GraphML/CSV)") term

(* --- federation ------------------------------------------------------------------ *)

let federation_cmd =
  let regions_arg =
    Arg.(value & opt int 2 & info [ "regions" ] ~docv:"N" ~doc:"Regional POCs.")
  in
  let run verbose seed sites bps regions =
    setup_logs verbose;
    let plan = build_plan ~sites ~bps ~seed ~rule:Acc.Handle_load in
    match Poc_federation.Federation.build plan ~regions with
    | Error msg ->
      Printf.eprintf "federation failed: %s\n" msg;
      exit 1
    | Ok f ->
      print_string (Poc_federation.Federation.render plan f);
      Printf.printf "federation spend $%.0f (%+.1f%% vs single POC)\n"
        f.Poc_federation.Federation.federation_spend
        (100.0 *. Poc_federation.Federation.fragmentation_overhead f)
  in
  let term =
    Term.(const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ regions_arg)
  in
  Cmd.v (Cmd.info "federation" ~doc:"Split the POC into regional POCs") term

(* --- availability ----------------------------------------------------------------- *)

let availability_cmd =
  let mtbf_arg =
    Arg.(value & opt float 2000.0 & info [ "mtbf" ] ~docv:"HOURS" ~doc:"Per-link MTBF.")
  in
  let run verbose seed sites bps rule mtbf =
    setup_logs verbose;
    let plan = build_plan ~sites ~bps ~seed ~rule in
    let module A = Poc_sim.Availability in
    let r =
      A.simulate plan
        { A.default_config with A.mtbf_hours = mtbf; seed = seed + 1 }
    in
    Printf.printf
      "plan %s: availability %.6f over a month (%d failures, worst %.4f, max %d concurrent)\n"
      (Acc.name rule) r.A.availability r.A.failure_events r.A.worst_fraction
      r.A.max_concurrent_failures
  in
  let term =
    Term.(
      const run $ verbose_arg $ seed_arg $ sites_arg $ bps_arg $ rule_arg
      $ mtbf_arg)
  in
  Cmd.v (Cmd.info "availability" ~doc:"Simulate link failures on the plan") term

(* --- baseline -------------------------------------------------------------------- *)

let baseline_cmd =
  let run verbose seed =
    setup_logs verbose;
    let module As_graph = Poc_baseline.As_graph in
    let module Bgp = Poc_baseline.Bgp in
    let g = As_graph.generate ~seed () in
    let n = As_graph.size g in
    Printf.printf "AS hierarchy: %d ASes, %d links, %d stub networks\n" n
      (Array.length g.As_graph.links)
      (List.length (As_graph.stubs g));
    Printf.printf "policy-reachable ordered pairs: %d / %d\n"
      (Bgp.reachable_pairs g) (n * (n - 1))
  in
  let term = Term.(const run $ verbose_arg $ seed_arg) in
  Cmd.v (Cmd.info "baseline" ~doc:"Describe the traditional-Internet comparator") term

let () =
  let doc = "A Public Option for the Core — planning, auction and policy toolkit" in
  let info = Cmd.info "poc-cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ plan_cmd; auction_cmd; econ_cmd; market_cmd; chaos_cmd; scrub_cmd;
      forensics_cmd; fleet_cmd; serve_cmd; ctl_cmd; profile_cmd; topology_cmd;
      federation_cmd; availability_cmd; export_cmd; baseline_cmd ]))
