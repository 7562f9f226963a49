(* E15 (extension) — graceful degradation under injected faults: the
   supervised epoch loop on a chaos schedule (BP bankruptcy +
   concurrent link failures + a full recall wave) vs the same market
   without faults, reporting service level, ladder activations, and
   epochs-to-recovery per incident. *)

module Planner = Poc_core.Planner
module Settlement = Poc_core.Settlement
module Epochs = Poc_market.Epochs
module Wan = Poc_topology.Wan
module Acc = Poc_auction.Acceptability
module Fault = Poc_resilience.Fault
module Ladder = Poc_resilience.Ladder
module Supervisor = Poc_resilience.Supervisor

let chaos_specs (wan : Wan.t) =
  let biggest = match Wan.bps_by_size wan with b :: _ -> b | [] -> 0 in
  let n_bps = Array.length wan.Wan.bps in
  [
    Fault.Bp_bankruptcy { at_epoch = 3; bp = biggest };
    Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 };
    Fault.Traffic_surge { at_epoch = 7; factor = 1.6; duration = 2 };
  ]
  @ List.init n_bps (fun bp ->
        Fault.Capacity_recall { at_epoch = 5; bp; fraction = 1.0; duration = 1 })

let run ~scale ~seed =
  Common.header "E15 — chaos: supervised degradation vs fault-free epochs";
  Common.reset_metrics ();
  (* Ten supervised epochs each price a full VCG auction (and the
     recall wave walks the whole ladder), so the default quick
     instance is still too big to finish in bench time; use a smaller
     WAN at quick scale. *)
  let config =
    match scale with
    | Common.Paper -> Common.plan_config ~scale ~seed ~rule:Acc.Handle_load
    | Common.Quick ->
      Planner.scaled_config ~sites:24 ~bps:6
        { Planner.default_config with Planner.seed; rule = Acc.Handle_load }
  in
  match Common.timed "plan" (fun () -> Planner.build config) with
  | Error msg -> Printf.printf "planning failed: %s\n" msg
  | Ok plan ->
    let market =
      { Epochs.default_config with Epochs.epochs = 10; seed = seed + 2 }
    in
    let schedule =
      match Fault.compile plan.Planner.wan ~seed:(seed + 3) (chaos_specs plan.Planner.wan) with
      | Ok s -> s
      | Error msg -> failwith ("bad chaos schedule: " ^ msg)
    in
    let report =
      Common.timed "supervised run" (fun () ->
          Supervisor.run plan ~market ~schedule)
    in
    print_string (Supervisor.render_epochs report);
    Common.subheader "incident log";
    print_string (Supervisor.render_incidents report);
    let healthy, degraded =
      List.partition
        (fun (er : Supervisor.epoch_report) ->
          er.Supervisor.status = Supervisor.Healthy)
        report.Supervisor.epochs
    in
    let mean f xs =
      match xs with
      | [] -> 0.0
      | _ ->
        List.fold_left (fun acc x -> acc +. f x) 0.0 xs
        /. float_of_int (List.length xs)
    in
    Printf.printf
      "\nhealthy epochs %d, degraded %d; ladder activations %d; mean \
       delivered (degraded) %.1f%%\n"
      (List.length healthy) (List.length degraded)
      report.Supervisor.ladder_activations
      (100.0
      *. mean
           (fun (er : Supervisor.epoch_report) ->
             er.Supervisor.delivered_fraction)
           degraded);
    (match report.Supervisor.violations with
    | [] -> print_endline "invariants: all hold (ledger, price, capacity)"
    | vs -> Printf.printf "INVARIANT VIOLATIONS: %d\n" (List.length vs));
    (match report.Supervisor.final_plan with
    | None -> ()
    | Some final ->
      let ledger = Settlement.of_plan final () in
      Printf.printf "closing ledger conservation: $%.6f\n"
        (Settlement.conservation ledger));
    (* The fault-free baseline: the same drift with no fault model.  An
       epoch cleared when its auction cleared outright (Healthy), with
       no ladder rung or carry. *)
    let baseline =
      (Supervisor.run plan ~market ~schedule:Fault.none).Supervisor.epochs
    in
    Printf.printf "fault-free baseline (no fault model): %d/%d epochs cleared\n"
      (List.length
         (List.filter
            (fun (er : Supervisor.epoch_report) ->
              er.Supervisor.status = Supervisor.Healthy)
            baseline))
      (List.length baseline);
    (* Journal overhead: the same supervised run with durability on
       (one flushed record per epoch + periodic snapshots), first into
       an unbounded store (one segment, never rotated), then at a few
       rotation budgets.  Tighter budgets rotate (and GC) more often;
       the bytes left on disk shrink to the active window while the
       wall clock should stay within noise of the unbounded run. *)
    Common.subheader "journal overhead";
    let bytes_on_disk dir =
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then acc
          else acc + (Unix.stat p).Unix.st_size)
        0 (Sys.readdir dir)
    in
    let rm_store dir =
      if Sys.file_exists dir then begin
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            if not (Sys.is_directory p) then Sys.remove p)
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end
    in
    let store_dir name =
      Filename.concat (Filename.get_temp_dir_name ()) ("bench_" ^ name)
    in
    let unbounded_stats = ref None in
    let path = store_dir "journal" in
    Fun.protect
      ~finally:(fun () -> rm_store path)
      (fun () ->
        let journaled, unbounded_s =
          Common.timed_s "supervised run (journaled)" (fun () ->
              Supervisor.run plan ~journal:path ~market ~schedule)
        in
        let replayed =
          Common.timed "journal replay" (fun () ->
              Poc_resilience.Journal.replay path)
        in
        match replayed with
        | Error msg -> Printf.printf "replay failed: %s\n" msg
        | Ok r ->
          unbounded_stats := Some (unbounded_s, bytes_on_disk path);
          Printf.printf
            "journal: %d bytes for %d epochs (%d records, snapshot every \
             %d); rendered output %s\n"
            r.Poc_resilience.Journal.valid_bytes market.Epochs.epochs
            (List.length r.Poc_resilience.Journal.records)
            r.Poc_resilience.Journal.header.Poc_resilience.Journal.snapshot_every
            (if
               Supervisor.render_epochs journaled
               = Supervisor.render_epochs report
             then "identical to the unjournaled run"
             else "DIVERGED from the unjournaled run"));
    Common.subheader "rotation overhead (rotating store)";
    let seg_rows =
      List.map
        (fun budget ->
          let dir = store_dir (Printf.sprintf "segstore_%d" budget) in
          Fun.protect
            ~finally:(fun () -> rm_store dir)
            (fun () ->
              let journaled, dt =
                Common.timed_s
                  (Printf.sprintf "segmented run (budget %d)" budget)
                  (fun () ->
                    Supervisor.run plan ~journal:dir ~segment_bytes:budget
                      ~market ~schedule)
              in
              let bytes = bytes_on_disk dir in
              let live =
                match Poc_resilience.Journal.replay dir with
                | Ok r -> List.length r.Poc_resilience.Journal.live_segments
                | Error _ -> 0
              in
              Printf.printf
                "budget %6d: %.2f epochs/s, %d bytes on disk, %d live \
                 segments; rendered output %s\n"
                budget
                (float_of_int market.Epochs.epochs /. dt)
                bytes live
                (if
                   Supervisor.render_epochs journaled
                   = Supervisor.render_epochs report
                 then "identical"
                 else "DIVERGED");
              Printf.sprintf
                "{\"budget\":%d,\"seconds\":%.3f,\"epochs_per_s\":%.3f,\"bytes_on_disk\":%d,\"live_segments\":%d}"
                budget dt
                (float_of_int market.Epochs.epochs /. dt)
                bytes live))
        [ 4096; 16384; 65536 ]
    in
    let rotation_json =
      let unbounded =
        match !unbounded_stats with
        | Some (s, bytes) ->
          Printf.sprintf "{\"seconds\":%.3f,\"bytes_on_disk\":%d}" s bytes
        | None -> "null"
      in
      Printf.sprintf "{\"unbounded\":%s,\"segmented\":[%s]}" unbounded
        (String.concat "," seg_rows)
    in
    print_endline
      "expected shape: every epoch keeps a priced outcome (no blackout),\n\
     the recall wave degrades to a ladder rung and recovers the next\n\
     epoch, and the ledger nets to zero throughout.";
    Common.write_metrics_artifact ~extra:[ ("rotation", rotation_json) ]
      ~label:"e15" ()
