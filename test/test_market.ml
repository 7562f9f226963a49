(* Tests for the market model (Poc_market.Epochs) under the epoch
   loop with no faults: repeated auctions, cost drift, recalls and
   supplier concentration. *)

module Epochs = Poc_market.Epochs
module Vcg = Poc_auction.Vcg
module Fault = Poc_resilience.Fault
module Supervisor = Poc_resilience.Supervisor

let plan () = Lazy.force Fixtures.small_plan

let run_plan plan market =
  (Supervisor.run plan ~market ~schedule:Fault.none).Supervisor.epochs

let run_market ?(epochs = 6) ?(trend = -0.03) ?(strategies = []) () =
  run_plan (plan ())
    {
      Epochs.epochs;
      cost_trend = trend;
      cost_volatility = 0.02;
      demand_growth = 1.0;
      strategies;
      seed = 3;
    }

let healthy (r : Supervisor.epoch_report) =
  r.Supervisor.status = Supervisor.Healthy

let test_epoch_count () =
  Alcotest.(check int) "one result per epoch" 6 (List.length (run_market ()))

let test_epochs_numbered () =
  List.iteri
    (fun i (r : Supervisor.epoch_report) ->
      Alcotest.(check int) "sequential" (i + 1) r.Supervisor.epoch)
    (run_market ())

let test_no_failures_on_healthy_market () =
  List.iter
    (fun r -> Alcotest.(check bool) "selection found" true (healthy r))
    (run_market ())

let test_spend_tracks_declining_costs () =
  let results = run_market ~epochs:8 ~trend:(-0.05) () in
  match (results, List.rev results) with
  | first :: _, last :: _ ->
    Alcotest.(check bool) "POC spend falls with market prices" true
      (last.Supervisor.spend < first.Supervisor.spend)
  | _, _ -> Alcotest.fail "results expected"

let test_rising_costs_raise_spend () =
  let results = run_market ~epochs:8 ~trend:0.05 () in
  match (results, List.rev results) with
  | first :: _, last :: _ ->
    Alcotest.(check bool) "spend rises" true
      (last.Supervisor.spend > first.Supervisor.spend)
  | _, _ -> Alcotest.fail "results expected"

let test_recall_strategy_counts () =
  let results =
    run_market ~strategies:[ (0, Epochs.Recallable 0.5) ] ()
  in
  let any_recalls =
    List.exists
      (fun (r : Supervisor.epoch_report) -> r.Supervisor.recalled_links > 0)
      results
  in
  Alcotest.(check bool) "recalls happen" true any_recalls;
  List.iter
    (fun r -> Alcotest.(check bool) "still clears" true (healthy r))
    results

let test_markup_strategy_raises_spend () =
  let honest = run_market () in
  let marked =
    run_market
      ~strategies:
        (List.init (Array.length (plan ()).Poc_core.Planner.problem.Vcg.bids)
           (fun bp -> (bp, Epochs.Markup 0.5)))
      ()
  in
  let avg results =
    let xs =
      List.map (fun (r : Supervisor.epoch_report) -> r.Supervisor.spend) results
    in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  Alcotest.(check bool) "universal markup costs the POC more" true
    (avg marked > avg honest)

let test_config_validation () =
  Alcotest.check_raises "epochs must be positive"
    (Invalid_argument "Epochs: epochs must be positive") (fun () ->
      ignore
        (run_plan (plan ()) { Epochs.default_config with Epochs.epochs = 0 }))

let test_config_validation_lists_every_problem () =
  (* One message naming all three bad fields, not just the first. *)
  let bad =
    {
      Epochs.default_config with
      Epochs.epochs = 0;
      demand_growth = -1.0;
      strategies = [ (2, Epochs.Recallable 1.5) ];
    }
  in
  match Epochs.validate_config bad with
  | Ok () -> Alcotest.fail "expected a validation error"
  | Error msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S" needle)
        true (go 0)
    in
    contains "epochs must be positive";
    contains "demand_growth must be positive";
    contains "recall fraction for BP 2"

let test_empty_offer_pool_reported () =
  (* Recall every BP link each epoch and strip the contracted virtual
     links from the problem and from the seed selection the loop would
     otherwise carry forward: nothing is leasable, every epoch. *)
  let module Planner = Poc_core.Planner in
  let plan = plan () in
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
  let n_bps = Array.length problem.Vcg.bids in
  let results =
    run_plan plan
      {
        Epochs.default_config with
        Epochs.epochs = 3;
        strategies = List.init n_bps (fun bp -> (bp, Epochs.Recallable 1.0));
        seed = 3;
      }
  in
  List.iter
    (fun (r : Supervisor.epoch_report) ->
      Alcotest.(check bool) "blackout" true
        (r.Supervisor.status = Supervisor.Blackout))
    results

let test_supplier_hhi_of_outcome () =
  let outcome = (plan ()).Poc_core.Planner.outcome in
  let h = Epochs.supplier_hhi outcome in
  Alcotest.(check bool) "in (0,1]" true (h > 0.0 && h <= 1.0)

let suite =
  [
    Alcotest.test_case "epoch count" `Quick test_epoch_count;
    Alcotest.test_case "epochs numbered" `Quick test_epochs_numbered;
    Alcotest.test_case "no failures when healthy" `Quick
      test_no_failures_on_healthy_market;
    Alcotest.test_case "spend tracks declining costs" `Quick
      test_spend_tracks_declining_costs;
    Alcotest.test_case "rising costs raise spend" `Quick test_rising_costs_raise_spend;
    Alcotest.test_case "recall strategy" `Quick test_recall_strategy_counts;
    Alcotest.test_case "markup raises spend" `Quick test_markup_strategy_raises_spend;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config validation lists every problem" `Quick
      test_config_validation_lists_every_problem;
    Alcotest.test_case "empty offer pool reported" `Quick
      test_empty_offer_pool_reported;
    Alcotest.test_case "supplier HHI of outcome" `Quick test_supplier_hhi_of_outcome;
  ]
