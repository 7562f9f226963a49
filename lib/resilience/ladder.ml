module Vcg = Poc_auction.Vcg
module Bid = Poc_auction.Bid
module Acceptability = Poc_auction.Acceptability
module Graph = Poc_graph.Graph

type step =
  | Relax_demand of float
  | Step_down of Acceptability.t
  | Connectivity_only
  | External_transit

let relax_factors = [ 0.9; 0.75; 0.5 ]

type engaged = {
  step : step;
  attempts : int;
  outcome : Vcg.outcome;
  demand_scale : float;
}

let weaker_rules = function
  | Acceptability.Per_pair_failure ->
    [ Acceptability.Single_link_failure; Acceptability.Handle_load ]
  | Acceptability.Single_link_failure -> [ Acceptability.Handle_load ]
  | Acceptability.Handle_load -> []

let rungs ~rule =
  List.map (fun f -> Relax_demand f) relax_factors
  @ List.map (fun r -> Step_down r) (weaker_rules rule)
  @ [ Connectivity_only; External_transit ]

(* Offered (id, standalone price) pairs of the problem, unbanned only. *)
let offered_prices ~banned (problem : Vcg.problem) =
  let bp_links =
    Array.to_list problem.Vcg.bids
    |> List.concat_map (fun bid ->
           List.map (fun id -> (id, Bid.single_price bid id)) (Bid.links bid))
  in
  (bp_links @ problem.Vcg.virtual_prices)
  |> List.filter (fun (id, _) -> not (banned id))
  |> List.sort (fun (a, pa) (b, pb) -> compare (pa, a) (pb, b))

(* Cheapest spanning forest of the unbanned offer pool (Kruskal). *)
let spanning_forest ~banned (problem : Vcg.problem) =
  let n = Graph.node_count problem.Vcg.graph in
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra = rb then false
    else begin
      parent.(ra) <- rb;
      true
    end
  in
  let chosen =
    List.filter
      (fun (id, _) ->
        let e = Graph.edge problem.Vcg.graph id in
        union e.Graph.u e.Graph.v)
      (offered_prices ~banned problem)
    |> List.map fst |> List.sort compare
  in
  chosen

let selection_of problem links =
  { Vcg.selected = links; cost = Vcg.selection_cost problem links }

let pay_as_bid problem links =
  match links with
  | [] -> None
  | _ :: _ ->
    let sel = selection_of problem links in
    Vcg.run_pay_as_bid ~select:(fun ?banned:_ ?cache:_ _ -> Some sel) problem

let scale_demands factor demands =
  List.map (fun (a, b, d) -> (a, b, d *. factor)) demands

let try_step ~banned ?pool (problem : Vcg.problem) = function
  | Relax_demand f ->
    let select ?banned:(extra = fun _ -> false) ?cache p =
      Vcg.select_greedy ~banned:(fun id -> banned id || extra id) ?cache ?pool p
    in
    let relaxed =
      { problem with Vcg.demands = scale_demands f problem.Vcg.demands }
    in
    Option.map (fun o -> (o, f)) (Vcg.run ~select ?pool relaxed)
  | Step_down rule ->
    let select ?banned:(extra = fun _ -> false) ?cache p =
      Vcg.select_greedy ~banned:(fun id -> banned id || extra id) ?cache ?pool p
    in
    Option.map (fun o -> (o, 1.0))
      (Vcg.run ~select ?pool { problem with Vcg.rule = rule })
  | Connectivity_only ->
    Option.map
      (fun o -> (o, 1.0))
      (pay_as_bid problem (spanning_forest ~banned problem))
  | External_transit ->
    let links =
      List.filter_map
        (fun (id, _) -> if banned id then None else Some id)
        problem.Vcg.virtual_prices
      |> List.sort compare
    in
    Option.map (fun o -> (o, 1.0)) (pay_as_bid problem links)

let engage ~banned ?pool (problem : Vcg.problem) =
  let steps = rungs ~rule:problem.Vcg.rule in
  let winner_at i step (outcome, demand_scale) =
    { step; attempts = i + 1; outcome; demand_scale }
  in
  match pool with
  | Some p when Poc_util.Pool.size p > 0 && List.length steps > 1 ->
    (* Rungs are independent pure attempts, so evaluate them all
       speculatively across the pool and keep the first success in rung
       order: worst-case degraded-epoch latency is the slowest single
       rung, not the sum of every failed rung.  [attempts] stays the
       winner's 1-based rung index, exactly what the serial walk
       reports, so incident logs are identical at every pool size.
       Tracing does not change the path: each domain keeps its own
       span stack, so a traced epoch times the program an untraced one
       runs. *)
    let results =
      Poc_util.Pool.map_list p
        (fun step -> try_step ~banned ~pool:p problem step)
        steps
    in
    let rec pick i steps results =
      match (steps, results) with
      | step :: _, Some r :: _ -> Some (winner_at i step r)
      | _ :: steps, None :: results -> pick (i + 1) steps results
      | _, _ -> None
    in
    pick 0 steps results
  | Some _ | None ->
    let rec go i = function
      | [] -> None
      | step :: rest -> (
        match try_step ~banned ?pool problem step with
        | Some r -> Some (winner_at i step r)
        | None -> go (i + 1) rest)
    in
    go 0 steps

let step_to_string = function
  | Relax_demand f -> Printf.sprintf "relax(%.2f)" f
  | Step_down rule -> Printf.sprintf "step_down(%s)" (Acceptability.name rule)
  | Connectivity_only -> "connectivity_only"
  | External_transit -> "external_transit"
