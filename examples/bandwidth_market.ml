(* The open bandwidth market over a year (Section 3.3).

   Long-haul lease prices have been falling ~25% a year, and the large
   CSPs that overbuild their private backbones want to lease the excess
   out — but recall it on demand.  This example replays eight monthly
   auctions over the same offer pool with drifting costs, one
   CSP-backed provider that recalls links at random, and one provider
   that always marks its bids up 40%, through the supervised epoch
   loop with no faults injected.

   Run with:  dune exec examples/bandwidth_market.exe *)

module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Wan = Poc_topology.Wan
module Fault = Poc_resilience.Fault
module Supervisor = Poc_resilience.Supervisor

let () =
  let config =
    Planner.scaled_config ~sites:22 ~bps:6
      { Planner.default_config with Planner.seed = 13 }
  in
  match Planner.build config with
  | Error msg ->
    prerr_endline ("planning failed: " ^ msg);
    exit 1
  | Ok plan ->
    Printf.printf "offer pool: %s\n\n" (Wan.summary plan.Planner.wan);
    let biggest =
      match Wan.bps_by_size plan.Planner.wan with b :: _ -> b | [] -> 0
    in
    let report =
      Supervisor.run plan
        ~market:
          {
            Epochs.epochs = 8;
            cost_trend = -0.022; (* ~ -24%/year, the paper's trans-Atlantic figure *)
            cost_volatility = 0.06;
            demand_growth = 1.015;
            strategies =
              [ (biggest, Epochs.Recallable 0.25); ((biggest + 1) mod 6, Epochs.Markup 0.4) ];
            seed = 99;
          }
        ~schedule:Fault.none
    in
    let results = report.Supervisor.epochs in
    Printf.printf "%-6s %12s %12s %6s %9s  %s\n" "month" "POC spend $"
      "$/Gbps" "|SL|" "recalled" "status";
    List.iter
      (fun (r : Supervisor.epoch_report) ->
        Printf.printf "%-6d %12.0f %12.2f %6d %9d  %s\n" r.Supervisor.epoch
          r.Supervisor.spend r.Supervisor.price_per_gbps
          r.Supervisor.selected_links r.Supervisor.recalled_links
          (Supervisor.status_to_string r.Supervisor.status))
      results;
    (* Supplier concentration of the closing selection: the Herfindahl
       index over the POC's BP payments, in [0,1]. *)
    Option.iter
      (fun (final : Planner.plan) ->
        Printf.printf "\nclosing selection's supplier HHI: %.3f\n"
          (Epochs.supplier_hhi final.Planner.outcome))
      report.Supervisor.final_plan;
    let first = List.hd results and last = List.hd (List.rev results) in
    Printf.printf
      "\nthe POC's posted price tracked the falling market: $%.2f -> $%.2f\n\
       per Gbps-month (%+.1f%%) despite demand growing %.0f%% and a large\n\
       supplier yanking a quarter of its links every month.\n"
      first.Supervisor.price_per_gbps last.Supervisor.price_per_gbps
      (100.0
      *. (last.Supervisor.price_per_gbps -. first.Supervisor.price_per_gbps)
      /. first.Supervisor.price_per_gbps)
      (100.0 *. ((1.015 ** 8.0) -. 1.0))
