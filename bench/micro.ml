(* Bechamel micro-benchmarks of the computational kernels behind the
   experiments: one Test.make per kernel, OLS-estimated ns/run. *)

open Bechamel
module Planner = Poc_core.Planner
module Wan = Poc_topology.Wan
module Matrix = Poc_traffic.Matrix
module Router = Poc_mcf.Router
module Prng = Poc_util.Prng
module Pool = Poc_util.Pool

let tiny_config =
  Planner.scaled_config ~sites:20 ~bps:6
    { Planner.default_config with Planner.seed = 5 }

let tests pool =
  let wan = Wan.generate ~params:tiny_config.Planner.params ~seed:5 () in
  let matrix = Matrix.gravity (Prng.create 9) wan ~total_gbps:600.0 () in
  let demands = Matrix.undirected_pair_demands matrix in
  let problem =
    Poc_auction.Setup.problem wan matrix
      ~rule:Poc_auction.Acceptability.Handle_load
  in
  let plan =
    match Planner.build tiny_config with
    | Ok plan -> plan
    | Error msg -> failwith ("micro: plan failed: " ^ msg)
  in
  let as_graph = Poc_baseline.As_graph.generate ~seed:3 () in
  [
    Test.make ~name:"gravity-traffic-matrix"
      (Staged.stage (fun () ->
           ignore (Matrix.gravity (Prng.create 9) wan ~total_gbps:600.0 ())));
    Test.make ~name:"mcf-route-feasibility"
      (Staged.stage (fun () -> ignore (Router.route wan.Wan.graph ~demands)));
    Test.make ~name:"vcg-greedy-selection"
      (Staged.stage (fun () -> ignore (Poc_auction.Vcg.select_greedy problem)));
    Test.make ~name:"vcg-greedy-selection-pool2"
      (Staged.stage (fun () ->
           ignore (Poc_auction.Vcg.select_greedy ~pool problem)));
    Test.make ~name:"pool-map-handoff-64"
      (let xs = Array.init 64 Fun.id in
       Staged.stage (fun () -> ignore (Pool.map pool (fun x -> x + 1) xs)));
    Test.make ~name:"vcg-full-run-pool2"
      (Staged.stage (fun () -> ignore (Poc_auction.Vcg.run ~pool problem)));
    Test.make ~name:"nbs-equilibrium-fixed-point"
      (Staged.stage (fun () ->
           ignore
             (Poc_econ.Equilibrium.solve_rc
                ~demand:(Poc_econ.Demand.Exponential 10.0) ~rc:1.0 ())));
    Test.make ~name:"bgp-routes-to-one-dst"
      (Staged.stage (fun () -> ignore (Poc_baseline.Bgp.routes_to as_graph 0)));
    Test.make ~name:"settlement-ledger"
      (Staged.stage (fun () -> ignore (Poc_core.Settlement.of_plan plan ())));
  ]

let run ~scale ~seed =
  ignore scale;
  ignore seed;
  Common.header "micro-benchmarks (Bechamel, OLS ns/run)";
  (* A real 2-worker pool even on small machines, so the handoff and
     pooled-auction kernels measure actual cross-domain cost. *)
  let pool = Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let analysis =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all analysis Toolkit.Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols acc ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some (t :: _) -> t
              | Some [] | None -> nan
            in
            let r2 =
              match Analyze.OLS.r_square ols with Some r -> r | None -> nan
            in
            [ name;
              (if Float.is_nan estimate then "n/a"
               else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
               else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
               else Printf.sprintf "%.0f ns" estimate);
              Printf.sprintf "%.4f" r2 ]
            :: acc)
          analyzed [])
      (tests pool)
  in
  Poc_util.Table.print
    ~align:[ Poc_util.Table.Left; Poc_util.Table.Right; Poc_util.Table.Right ]
    ~header:[ "kernel"; "time/run"; "r²" ]
    rows
