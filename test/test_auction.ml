(* Tests for Poc_auction: bid families, acceptability rules, exact and
   greedy selection, VCG payments (individual rationality and
   strategyproofness), and the collusion experiment. *)

module Graph = Poc_graph.Graph
module Bid = Poc_auction.Bid
module Acc = Poc_auction.Acceptability
module Vcg = Poc_auction.Vcg
module Collusion = Poc_auction.Collusion
module Setup = Poc_auction.Setup
module Wan = Poc_topology.Wan
module Prng = Poc_util.Prng

let check_float = Alcotest.(check (float 1e-6))

(* --- Bids ------------------------------------------------------------------ *)

let test_additive_bid () =
  let b = Bid.additive [ (0, 10.0); (1, 20.0) ] in
  check_float "pair" 30.0 (Bid.cost b [ 0; 1 ]);
  check_float "single" 10.0 (Bid.cost b [ 0 ]);
  check_float "empty" 0.0 (Bid.cost b []);
  Alcotest.(check bool) "unknown link is infinite" true
    (Bid.cost b [ 0; 7 ] = infinity);
  Alcotest.(check (list int)) "links" [ 0; 1 ] (Bid.links b)

let test_volume_discount_bid () =
  let b = Bid.volume_discount [ (0, 10.0); (1, 10.0); (2, 10.0) ] ~tiers:[ (2, 0.9); (3, 0.8) ] in
  check_float "no discount on singles" 10.0 (Bid.cost b [ 0 ]);
  check_float "two links at 0.9" 18.0 (Bid.cost b [ 0; 1 ]);
  check_float "three links at 0.8" 24.0 (Bid.cost b [ 0; 1; 2 ])

let test_bundled_bid () =
  let b = Bid.bundled [ (0, 10.0); (1, 10.0); (2, 5.0) ] ~bundles:[ ([ 0; 1 ], 4.0) ] in
  check_float "bundle rebate" 16.0 (Bid.cost b [ 0; 1 ]);
  check_float "partial bundle" 15.0 (Bid.cost b [ 0; 2 ]);
  check_float "all three" 21.0 (Bid.cost b [ 0; 1; 2 ])

let test_bid_validation () =
  Alcotest.check_raises "negative price" (Invalid_argument "Bid: bad price")
    (fun () -> ignore (Bid.additive [ (0, -1.0) ]));
  Alcotest.check_raises "duplicate id" (Invalid_argument "Bid: duplicate link id")
    (fun () -> ignore (Bid.additive [ (0, 1.0); (0, 2.0) ]));
  Alcotest.check_raises "rebate too large"
    (Invalid_argument "Bid.bundled: rebate exceeds bundle price") (fun () ->
      ignore (Bid.bundled [ (0, 1.0) ] ~bundles:[ ([ 0 ], 5.0) ]))

let test_bid_scale () =
  let b = Bid.scale (Bid.additive [ (0, 10.0) ]) 1.5 in
  check_float "scaled" 15.0 (Bid.cost b [ 0 ])

(* --- Reference instance ------------------------------------------------------

   Nodes 0,1,2.  BP0: A(0-1,$100), B(1-2,$100).  BP1: C(0-1,$120),
   D(1-2,$90), E(0-2,$250).  Virtual V(0-2,$1000).
   Demands: (0,1,5) and (1,2,5).  All capacities 10.

   Cheapest acceptable under rule #1: {A,D} at $190.
   VCG: P_BP0 = 100 + (C(SL_-0) - 190) = 100 + (210 - 190) = 120.
        P_BP1 =  90 + (200 - 190) = 100.                                     *)

let reference_problem () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  let a = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let b = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let c = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let d = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let e = Graph.add_edge g 0 2 ~weight:1.0 ~capacity:10.0 in
  let v = Graph.add_edge g 0 2 ~weight:1.0 ~capacity:20.0 in
  let problem =
    {
      Vcg.graph = g;
      demands = [ (0, 1, 5.0); (1, 2, 5.0) ];
      bids =
        [|
          Bid.additive [ (a, 100.0); (b, 100.0) ];
          Bid.additive [ (c, 120.0); (d, 90.0); (e, 250.0) ];
        |];
      virtual_prices = [ (v, 1000.0) ];
      rule = Acc.Handle_load;
    }
  in
  (problem, a, b, c, d, e, v)

let test_validate_ok () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  Alcotest.(check bool) "valid" true (Vcg.validate problem = Ok ())

let test_validate_rejects_double_offer () =
  let problem, a, _, _, _, _, _ = reference_problem () in
  let bad =
    { problem with Vcg.virtual_prices = (a, 1.0) :: problem.Vcg.virtual_prices }
  in
  Alcotest.(check bool) "double offer rejected" true (Vcg.validate bad <> Ok ())

let test_link_price_and_owner () =
  let problem, a, _, _, d, _, v = reference_problem () in
  check_float "bp0 price" 100.0 (Vcg.link_price problem a);
  check_float "bp1 price" 90.0 (Vcg.link_price problem d);
  check_float "virtual price" 1000.0 (Vcg.link_price problem v);
  Alcotest.(check (option int)) "owner a" (Some 0) (Vcg.owner_of_link problem a);
  Alcotest.(check (option int)) "virtual unowned" None (Vcg.owner_of_link problem v)

let test_selection_cost () =
  let problem, a, _, _, d, _, v = reference_problem () in
  check_float "bid + virtual" (100.0 +. 90.0 +. 1000.0)
    (Vcg.selection_cost problem [ a; d; v ])

let test_exact_selection () =
  let problem, a, _, _, d, _, _ = reference_problem () in
  match Vcg.select_exact problem with
  | None -> Alcotest.fail "feasible instance"
  | Some sel ->
    Alcotest.(check (list int)) "cheapest pair" [ a; d ] sel.Vcg.selected;
    check_float "cost" 190.0 sel.Vcg.cost

let test_greedy_feasible_and_close () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  match (Vcg.select_greedy problem, Vcg.select_exact problem) with
  | Some greedy, Some exact ->
    Alcotest.(check bool) "greedy acceptable" true
      (Acc.satisfied problem.Vcg.graph ~demands:problem.Vcg.demands
         ~enabled:(fun id -> List.mem id greedy.Vcg.selected)
         problem.Vcg.rule);
    Alcotest.(check bool) "greedy >= exact" true
      (greedy.Vcg.cost >= exact.Vcg.cost -. 1e-6)
  | _, _ -> Alcotest.fail "both selections must exist"

let test_vcg_payments_reference () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
  | None -> Alcotest.fail "feasible instance"
  | Some outcome ->
    check_float "C(SL)" 190.0 outcome.Vcg.selection.cost;
    check_float "P bp0" 120.0 outcome.Vcg.bp_results.(0).Vcg.payment;
    check_float "P bp1" 100.0 outcome.Vcg.bp_results.(1).Vcg.payment;
    check_float "PoB bp0" 0.2 outcome.Vcg.bp_results.(0).Vcg.pob;
    check_float "PoB bp1" (10.0 /. 90.0) outcome.Vcg.bp_results.(1).Vcg.pob;
    check_float "total spend" 220.0 outcome.Vcg.total_payment;
    check_float "no virtual selected" 0.0 outcome.Vcg.virtual_cost

let test_vcg_unselected_bp_gets_nothing () =
  let problem, a, b, _, _, _, _ = reference_problem () in
  (* Make BP1 hopeless: quadruple its prices. *)
  let bids = Array.copy problem.Vcg.bids in
  bids.(1) <- Bid.scale bids.(1) 10.0;
  let problem = { problem with Vcg.bids } in
  match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
  | None -> Alcotest.fail "feasible"
  | Some outcome ->
    Alcotest.(check (list int)) "bp0 sweeps" [ a; b ]
      outcome.Vcg.selection.selected;
    check_float "loser payment" 0.0 outcome.Vcg.bp_results.(1).Vcg.payment;
    check_float "loser pob" 0.0 outcome.Vcg.bp_results.(1).Vcg.pob

let test_individual_rationality_reference () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
  | None -> Alcotest.fail "feasible"
  | Some outcome ->
    Array.iter
      (fun (r : Vcg.bp_result) ->
        Alcotest.(check bool) "P >= bid cost" true
          (r.Vcg.payment >= r.Vcg.bid_cost -. 1e-9))
      outcome.Vcg.bp_results

(* Strategyproofness on the reference instance: scaling BP0's bid can
   never raise its utility (payment - true cost of what it serves). *)
let test_strategyproofness_reference () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  let true_bid = problem.Vcg.bids.(0) in
  let utility outcome =
    let r = outcome.Vcg.bp_results.(0) in
    r.Vcg.payment -. Bid.cost true_bid r.Vcg.selected_links
  in
  let truthful =
    match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
    | Some o -> utility o
    | None -> Alcotest.fail "feasible"
  in
  List.iter
    (fun factor ->
      let bids = Array.copy problem.Vcg.bids in
      bids.(0) <- Bid.scale true_bid factor;
      let misreport = { problem with Vcg.bids } in
      match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) misreport with
      | None -> Alcotest.fail "still feasible"
      | Some o ->
        Alcotest.(check bool)
          (Printf.sprintf "truthful dominates x%.2f" factor)
          true
          (truthful >= utility o -. 1e-9))
    [ 0.1; 0.5; 0.8; 0.95; 1.05; 1.3; 2.0; 10.0 ]

(* --- Failure rules ------------------------------------------------------------ *)

(* Two parallel 0-1 links; under rule #2 both are needed. *)
let redundancy_problem () =
  let g = Graph.create () in
  Graph.add_nodes g 2;
  let cheap = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let backup = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  ( {
      Vcg.graph = g;
      demands = [ (0, 1, 5.0) ];
      bids = [| Bid.additive [ (cheap, 50.0) ]; Bid.additive [ (backup, 80.0) ] |];
      virtual_prices = [];
      rule = Acc.Handle_load;
    },
    cheap,
    backup )

let test_rule1_skips_redundancy () =
  let problem, cheap, _ = redundancy_problem () in
  match Vcg.select_exact problem with
  | Some sel -> Alcotest.(check (list int)) "one link" [ cheap ] sel.Vcg.selected
  | None -> Alcotest.fail "feasible"

let test_rule2_buys_redundancy () =
  let problem, cheap, backup = redundancy_problem () in
  let problem = { problem with Vcg.rule = Acc.Single_link_failure } in
  match Vcg.select_exact problem with
  | Some sel ->
    Alcotest.(check (list int)) "both links" [ cheap; backup ] sel.Vcg.selected
  | None -> Alcotest.fail "feasible with both"

let test_rule3_per_pair_scenario () =
  let problem, cheap, backup = redundancy_problem () in
  let enabled _ = true in
  let scenario = Acc.per_pair_failure_scenario problem.Vcg.graph ~enabled in
  (* Equal capacities: the lower id is the designated victim. *)
  Alcotest.(check (list int)) "victim" [ min cheap backup ] scenario

let test_rule3_selection () =
  let problem, cheap, backup = redundancy_problem () in
  let problem = { problem with Vcg.rule = Acc.Per_pair_failure } in
  match Vcg.select_exact problem with
  | Some sel ->
    Alcotest.(check (list int)) "needs both" [ cheap; backup ] sel.Vcg.selected
  | None -> Alcotest.fail "feasible with both"

let test_acceptability_names () =
  Alcotest.(check int) "three rules" 3 (List.length Acc.all);
  List.iter
    (fun r -> Alcotest.(check bool) "named" true (String.length (Acc.name r) > 0))
    Acc.all

(* --- Collusion ------------------------------------------------------------------ *)

let test_withholding_unselected_links () =
  let problem, _, b, _, _, _, _ = reference_problem () in
  let select ?banned ?cache p = Vcg.select_exact ?banned ?cache p in
  match Vcg.run ~select problem with
  | None -> Alcotest.fail "feasible"
  | Some outcome -> (
    (* BP0's unselected link is B. *)
    match Collusion.withhold_unselected problem outcome ~bp:0 with
    | None -> Alcotest.fail "still feasible"
    | Some report ->
      Alcotest.(check (list int)) "withholds B" [ b ] report.Collusion.withheld_links;
      Alcotest.(check bool) "selection unchanged" false
        report.Collusion.selection_changed;
      check_float "own payment unchanged"
        report.Collusion.payment_before.(0)
        report.Collusion.payment_after.(0);
      Alcotest.(check bool) "rival's payment can only rise" true
        (report.Collusion.payment_after.(1)
        >= report.Collusion.payment_before.(1) -. 1e-9))

(* The collusion module uses select_greedy internally; run it on the
   reference instance end-to-end as a smoke check. *)
let test_collusion_greedy_path () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  match Vcg.run problem with
  | None -> Alcotest.fail "feasible"
  | Some outcome -> (
    match Collusion.all_withhold_unselected problem outcome with
    | None -> Alcotest.fail "coordinated withholding keeps feasibility here"
    | Some report ->
      Alcotest.(check int) "marker id" (-1) report.Collusion.withholder)


(* --- Pay-as-bid and warm start ------------------------------------------------ *)

let test_pay_as_bid_reference () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  match Vcg.run_pay_as_bid ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
  | None -> Alcotest.fail "feasible"
  | Some o ->
    check_float "paid exactly the bids" 190.0 o.Vcg.total_payment;
    Array.iter
      (fun (r : Vcg.bp_result) ->
        check_float "payment = bid" r.Vcg.bid_cost r.Vcg.payment;
        check_float "pob zero" 0.0 r.Vcg.pob)
      o.Vcg.bp_results

let test_select_warm_repairs () =
  let problem, a, b, _, d, _, _ = reference_problem () in
  (* Start from the optimal {a, d} but ban BP1 (c, d, e): the warm
     start must repair with BP0's b. *)
  let base = { Vcg.selected = [ a; d ]; cost = 190.0 } in
  let bp1_links = Bid.links problem.Vcg.bids.(1) in
  let banned id = List.mem id bp1_links in
  match Vcg.select_warm ~banned ~base problem with
  | None -> Alcotest.fail "repairable"
  | Some s ->
    Alcotest.(check bool) "keeps a" true (List.mem a s.Vcg.selected);
    Alcotest.(check bool) "no banned links" true
      (List.for_all (fun id -> not (banned id)) s.Vcg.selected);
    Alcotest.(check bool) "acceptable" true
      (Acc.satisfied problem.Vcg.graph ~demands:problem.Vcg.demands
         ~enabled:(fun id -> List.mem id s.Vcg.selected)
         problem.Vcg.rule);
    Alcotest.(check bool) "adds b" true (List.mem b s.Vcg.selected)

let test_select_warm_noop_when_acceptable () =
  let problem, a, _, _, d, _, _ = reference_problem () in
  let base = { Vcg.selected = [ a; d ]; cost = 190.0 } in
  match Vcg.select_warm ~base problem with
  | None -> Alcotest.fail "base is acceptable"
  | Some s ->
    check_float "cost unchanged" 190.0 s.Vcg.cost

let test_single_rankings_feasible () =
  let problem, _, _, _, _, _, _ = reference_problem () in
  List.iter
    (fun ranking ->
      match Vcg.select_greedy_single ~ranking problem with
      | None -> Alcotest.fail "feasible"
      | Some s ->
        Alcotest.(check bool) "acceptable" true
          (Acc.satisfied problem.Vcg.graph ~demands:problem.Vcg.demands
             ~enabled:(fun id -> List.mem id s.Vcg.selected)
             problem.Vcg.rule))
    [ `Unit_price; `Absolute_price ]


let test_volume_discount_in_mechanism () =
  (* BP0 offers both links with a 2-link discount that beats BP1's mix:
     the exact optimizer must price subsets with Cα, not per-link sums. *)
  let g = Graph.create () in
  Graph.add_nodes g 3;
  let a = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let b = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let c = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let d = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let problem =
    {
      Vcg.graph = g;
      demands = [ (0, 1, 5.0); (1, 2, 5.0) ];
      bids =
        [|
          (* 110 + 110 alone, but 176 for the pair (20% off). *)
          Bid.volume_discount [ (a, 110.0); (b, 110.0) ] ~tiers:[ (2, 0.8) ];
          Bid.additive [ (c, 100.0); (d, 100.0) ];
        |];
      virtual_prices = [];
      rule = Acc.Handle_load;
    }
  in
  match Vcg.select_exact problem with
  | None -> Alcotest.fail "feasible"
  | Some sel ->
    Alcotest.(check (list int)) "bundle wins" [ a; b ] sel.Vcg.selected;
    check_float "discounted cost" 176.0 sel.Vcg.cost;
    (match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
    | None -> Alcotest.fail "mechanism"
    | Some o ->
      (* Pivot: without BP0 the best is {c,d} at 200 -> P0 = 176 + 24. *)
      check_float "bundle payment" 200.0 o.Vcg.bp_results.(0).Vcg.payment;
      check_float "loser unpaid" 0.0 o.Vcg.bp_results.(1).Vcg.payment)

(* --- Setup glue ------------------------------------------------------------------- *)

let small_wan =
  lazy
    (Wan.generate
       ~params:
         {
           Wan.default_params with
           Wan.n_sites = 24;
           n_operators = 10;
           n_bps = 6;
           operator_min_sites = 5;
           operator_max_sites = 12;
           colocation_threshold = 2;
           external_attachments = 4;
         }
       ~seed:11 ())

let test_setup_problem_valid () =
  let wan = Lazy.force small_wan in
  let matrix =
    Poc_traffic.Matrix.gravity (Prng.create 3) wan ~total_gbps:200.0 ()
  in
  let problem = Setup.problem wan matrix ~rule:Acc.Handle_load in
  Alcotest.(check bool) "valid" true (Vcg.validate problem = Ok ());
  Alcotest.(check int) "bid per bp" (Array.length wan.Wan.bps)
    (Array.length problem.Vcg.bids);
  (* Truthful bids equal the links' private costs. *)
  let bp0 = wan.Wan.bps.(0) in
  let link = bp0.Wan.link_ids.(0) in
  check_float "truthful price" wan.Wan.links.(link).Wan.true_cost
    (Bid.single_price problem.Vcg.bids.(0) link)

let test_setup_margin () =
  let wan = Lazy.force small_wan in
  let matrix =
    Poc_traffic.Matrix.gravity (Prng.create 3) wan ~total_gbps:200.0 ()
  in
  let problem = Setup.problem ~margin:0.2 wan matrix ~rule:Acc.Handle_load in
  let bp0 = wan.Wan.bps.(0) in
  let link = bp0.Wan.link_ids.(0) in
  check_float "20% margin" (wan.Wan.links.(link).Wan.true_cost *. 1.2)
    (Bid.single_price problem.Vcg.bids.(0) link)

(* --- Figure 2 outcome pins ------------------------------------------------- *)

(* The Figure 2 instance of the repository benchmark's fig2 workload:
   16 sites, 4 BPs, seed 42, built the way Planner.build builds it.
   Its outcomes under each constraint are pinned as literals, so a
   kernel change that moves one path tie fails here rather than agree
   with itself. *)
let figure2_problem rule =
  let module Planner = Poc_core.Planner in
  let seed = 42 in
  let config =
    Planner.scaled_config ~sites:16 ~bps:4
      { Planner.default_config with Planner.seed }
  in
  let wan = Wan.generate ~params:config.Planner.params ~seed () in
  let capacity =
    Array.fold_left
      (fun acc (l : Wan.logical_link) -> acc +. l.Wan.capacity)
      0.0 wan.Wan.links
  in
  let matrix =
    Poc_traffic.Matrix.gravity (Prng.create (seed * 7919)) wan
      ~total_gbps:(capacity *. config.Planner.demand_fraction)
      ()
  in
  Setup.problem ~margin:config.Planner.bid_margin wan matrix ~rule

let test_figure2_pins () =
  let pins =
    [
      ( Acc.Handle_load,
        14,
        "0x1.da145b81fc9e6p+18",
        "0x1.1224b91491e37p+19",
        [ "0x1.96f08714b586ep+15"; "0x0p+0"; "0x1.f16b61468d161p+18"; "0x0p+0" ]
      );
      ( Acc.Single_link_failure,
        19,
        "0x1.66bd1e0d8ce06p+19",
        "0x1.7186e973c8c66p+19",
        [ "0x1.6a33f8a7a4dep+18"; "0x0p+0"; "0x1.78d9da3fecaecp+18"; "0x0p+0" ]
      );
      ( Acc.Per_pair_failure,
        31,
        "0x1.41db59c996113p+20",
        "0x1.41db59c996112p+20",
        [
          "0x1.f3a2ee5003701p+17";
          "0x1.1d5a8badf7ecep+19";
          "0x1.a6c8de282ab34p+18";
          "0x1.60efd3d1dffc7p+15";
        ] );
    ]
  in
  List.iter
    (fun (rule, links, cost, total, payments) ->
      let name what = Printf.sprintf "%s %s" (Acc.name rule) what in
      match Vcg.run (figure2_problem rule) with
      | None -> Alcotest.failf "%s: no acceptable selection" (Acc.name rule)
      | Some o ->
        Alcotest.(check int) (name "selection size") links
          (List.length o.Vcg.selection.Vcg.selected);
        Alcotest.(check string) (name "cost") cost
          (Printf.sprintf "%h" o.Vcg.selection.Vcg.cost);
        Alcotest.(check string) (name "total payment") total
          (Printf.sprintf "%h" o.Vcg.total_payment);
        Alcotest.(check (list string)) (name "BP payments") payments
          (Array.to_list
             (Array.map
                (fun (r : Vcg.bp_result) -> Printf.sprintf "%h" r.Vcg.payment)
                o.Vcg.bp_results)))
    pins

(* --- Properties on random small instances ------------------------------------------ *)

let random_problem seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let nodes = 3 + Prng.int rng 2 in
  Graph.add_nodes g nodes;
  let n_links = 5 + Prng.int rng 4 in
  let links =
    List.init n_links (fun _ ->
        let a = Prng.int rng nodes in
        let b = (a + 1 + Prng.int rng (nodes - 1)) mod nodes in
        Graph.add_edge g (min a b) (max a b) ~weight:1.0
          ~capacity:(8.0 +. (8.0 *. Prng.float rng)))
  in
  (* Ring of virtual links guarantees A(OL - La) is never empty. *)
  let virtual_prices =
    List.init nodes (fun i ->
        let v =
          Graph.add_edge g i ((i + 1) mod nodes) ~weight:1.0 ~capacity:50.0
        in
        (v, 500.0 +. (100.0 *. Prng.float rng)))
  in
  let bid_links = Array.make 2 [] in
  List.iteri (fun i id -> bid_links.(i mod 2) <- id :: bid_links.(i mod 2)) links;
  let bids =
    Array.map
      (fun ids ->
        Bid.additive
          (List.map (fun id -> (id, 20.0 +. (80.0 *. Prng.float rng))) ids))
      bid_links
  in
  let demands = ref [] in
  for _ = 1 to 3 do
    let a = Prng.int rng nodes in
    let b = (a + 1 + Prng.int rng (nodes - 1)) mod nodes in
    demands := (min a b, max a b, 1.0 +. (4.0 *. Prng.float rng)) :: !demands
  done;
  { Vcg.graph = g; demands = !demands; bids; virtual_prices; rule = Acc.Handle_load }

let qcheck_exact_beats_greedy =
  QCheck.Test.make ~name:"exact cost <= greedy cost" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      match (Vcg.select_exact problem, Vcg.select_greedy problem) with
      | Some exact, Some greedy -> exact.Vcg.cost <= greedy.Vcg.cost +. 1e-6
      | None, None -> true
      | Some _, None -> false (* greedy must find something if exact does *)
      | None, Some _ -> true (* greedy found it, exact...impossible *))

let qcheck_individual_rationality =
  QCheck.Test.make ~name:"VCG payment covers bid cost" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
      | None -> true
      | Some outcome ->
        Array.for_all
          (fun (r : Vcg.bp_result) -> r.Vcg.payment >= r.Vcg.bid_cost -. 1e-9)
          outcome.Vcg.bp_results)

let qcheck_strategyproof_random =
  QCheck.Test.make ~name:"misreporting never helps (exact VCG)" ~count:15
    QCheck.(pair (int_range 0 10_000) (float_range 0.3 3.0))
    (fun (seed, factor) ->
      let problem = random_problem seed in
      let true_bid = problem.Vcg.bids.(0) in
      let utility o =
        let r = o.Vcg.bp_results.(0) in
        r.Vcg.payment -. Bid.cost true_bid r.Vcg.selected_links
      in
      match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) problem with
      | None -> true
      | Some truthful_outcome -> (
        let bids = Array.copy problem.Vcg.bids in
        bids.(0) <- Bid.scale true_bid factor;
        match Vcg.run ~select:(fun ?banned ?cache p -> Vcg.select_exact ?banned ?cache p) { problem with Vcg.bids } with
        | None -> true
        | Some misreport_outcome ->
          utility truthful_outcome >= utility misreport_outcome -. 1e-6))

(* Shared pools for the parallel-determinism property: spawned once and
   reused across every qcheck iteration (pools are cheap to reuse,
   expensive to spawn 50×). *)
let shared_pools =
  lazy
    (List.map
       (fun jobs -> (jobs, Poc_util.Pool.create jobs))
       [ 1; 2; 4; 8 ])

let outcomes_equal a b =
  match (a, b) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some (a : Vcg.outcome), Some (b : Vcg.outcome) ->
    a.Vcg.selection.Vcg.selected = b.Vcg.selection.Vcg.selected
    && a.Vcg.selection.Vcg.cost = b.Vcg.selection.Vcg.cost
    && a.Vcg.total_payment = b.Vcg.total_payment
    && Array.for_all2
         (fun (x : Vcg.bp_result) (y : Vcg.bp_result) ->
           x.Vcg.payment = y.Vcg.payment
           && x.Vcg.pob = y.Vcg.pob
           && x.Vcg.selected_links = y.Vcg.selected_links)
         a.Vcg.bp_results b.Vcg.bp_results

let qcheck_parallel_matches_serial =
  QCheck.Test.make ~name:"Vcg.run ~pool identical to serial at any jobs"
    ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      let serial = Vcg.run problem in
      List.for_all
        (fun (_jobs, pool) -> outcomes_equal serial (Vcg.run ~pool problem))
        (Lazy.force shared_pools))

(* The feasibility cache is pure memoization: disabling it (or changing
   the pool size under it) must change no outcome. *)
let qcheck_cache_off_matches_on =
  QCheck.Test.make ~name:"Vcg.run identical with feascache on and off"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      let with_cache on f =
        let was = Poc_auction.Feascache.enabled () in
        Poc_auction.Feascache.set_enabled on;
        Fun.protect ~finally:(fun () ->
            Poc_auction.Feascache.set_enabled was)
          f
      in
      let cached = with_cache true (fun () -> Vcg.run problem) in
      let uncached = with_cache false (fun () -> Vcg.run problem) in
      let pools = Lazy.force shared_pools in
      let pool4 = List.assoc 4 pools in
      let cached4 = with_cache true (fun () -> Vcg.run ~pool:pool4 problem) in
      let uncached4 =
        with_cache false (fun () -> Vcg.run ~pool:pool4 problem)
      in
      outcomes_equal cached uncached
      && outcomes_equal cached cached4
      && outcomes_equal cached uncached4)

(* An explicitly shared cache must also be outcome-invisible when
   threaded through the exact selector across pool sizes. *)
let qcheck_select_exact_pooled_matches_serial =
  QCheck.Test.make ~name:"select_exact ~pool identical to serial" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      let cache =
        Poc_auction.Feascache.create ~digest:"test"
      in
      let serial = Vcg.select_exact problem in
      let selections_equal a b =
        match (a, b) with
        | None, None -> true
        | Some _, None | None, Some _ -> false
        | Some (x : Vcg.selection), Some y ->
          x.Vcg.selected = y.Vcg.selected && x.Vcg.cost = y.Vcg.cost
      in
      List.for_all
        (fun (_jobs, pool) ->
          let pooled = Vcg.select_exact ~cache ~pool problem in
          Poc_auction.Feascache.join cache;
          let warm = Vcg.select_exact ~cache ~pool problem in
          selections_equal serial pooled && selections_equal serial warm)
        (Lazy.force shared_pools))

(* The switch lives in the cache: one created while it is off stores
   nothing, hits nothing and counts nothing, even after the switch is
   back on. *)
let test_feascache_off_never_stores () =
  let module Feascache = Poc_auction.Feascache in
  let was = Feascache.enabled () in
  Feascache.set_enabled false;
  let cache =
    Fun.protect
      ~finally:(fun () -> Feascache.set_enabled was)
      (fun () -> Feascache.create ~digest:"switched-off")
  in
  Feascache.add_feas cache "101" true;
  Feascache.add_cost cache "101" 1.0;
  Feascache.join cache;
  Alcotest.(check (option bool)) "no verdict stored" None
    (Feascache.find_feas cache "101");
  Alcotest.(check (option (float 0.0))) "no cost stored" None
    (Feascache.find_cost cache "101");
  Alcotest.(check (pair int int)) "stats stay (0, 0)" (0, 0)
    (Feascache.stats cache)

let suite =
  [
    Alcotest.test_case "additive bid" `Quick test_additive_bid;
    Alcotest.test_case "volume discount bid" `Quick test_volume_discount_bid;
    Alcotest.test_case "bundled bid" `Quick test_bundled_bid;
    Alcotest.test_case "bid validation" `Quick test_bid_validation;
    Alcotest.test_case "bid scale" `Quick test_bid_scale;
    Alcotest.test_case "problem validates" `Quick test_validate_ok;
    Alcotest.test_case "double offer rejected" `Quick test_validate_rejects_double_offer;
    Alcotest.test_case "link price and owner" `Quick test_link_price_and_owner;
    Alcotest.test_case "selection cost" `Quick test_selection_cost;
    Alcotest.test_case "exact selection" `Quick test_exact_selection;
    Alcotest.test_case "greedy feasible and close" `Quick test_greedy_feasible_and_close;
    Alcotest.test_case "VCG payments (reference)" `Quick test_vcg_payments_reference;
    Alcotest.test_case "unselected BP gets nothing" `Quick
      test_vcg_unselected_bp_gets_nothing;
    Alcotest.test_case "individual rationality" `Quick
      test_individual_rationality_reference;
    Alcotest.test_case "strategyproofness (reference)" `Quick
      test_strategyproofness_reference;
    Alcotest.test_case "rule #1 skips redundancy" `Quick test_rule1_skips_redundancy;
    Alcotest.test_case "rule #2 buys redundancy" `Quick test_rule2_buys_redundancy;
    Alcotest.test_case "rule #3 scenario" `Quick test_rule3_per_pair_scenario;
    Alcotest.test_case "rule #3 selection" `Quick test_rule3_selection;
    Alcotest.test_case "acceptability names" `Quick test_acceptability_names;
    Alcotest.test_case "withholding unselected links" `Quick
      test_withholding_unselected_links;
    Alcotest.test_case "collusion greedy path" `Quick test_collusion_greedy_path;
    Alcotest.test_case "pay-as-bid reference" `Quick test_pay_as_bid_reference;
    Alcotest.test_case "warm start repairs" `Quick test_select_warm_repairs;
    Alcotest.test_case "warm start no-op" `Quick test_select_warm_noop_when_acceptable;
    Alcotest.test_case "single rankings feasible" `Quick test_single_rankings_feasible;
    Alcotest.test_case "volume discount in mechanism" `Quick
      test_volume_discount_in_mechanism;
    Alcotest.test_case "setup problem valid" `Quick test_setup_problem_valid;
    Alcotest.test_case "setup margin" `Quick test_setup_margin;
    Alcotest.test_case "Figure 2 outcomes pinned (16 sites, 4 BPs, seed 42)"
      `Quick test_figure2_pins;
    QCheck_alcotest.to_alcotest qcheck_exact_beats_greedy;
    QCheck_alcotest.to_alcotest qcheck_individual_rationality;
    QCheck_alcotest.to_alcotest qcheck_strategyproof_random;
    QCheck_alcotest.to_alcotest qcheck_parallel_matches_serial;
    QCheck_alcotest.to_alcotest qcheck_cache_off_matches_on;
    Alcotest.test_case "feascache created off never stores or hits" `Quick
      test_feascache_off_never_stores;
    QCheck_alcotest.to_alcotest qcheck_select_exact_pooled_matches_serial;
  ]
