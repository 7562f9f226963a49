module Wan = Poc_topology.Wan
module Matrix = Poc_traffic.Matrix
module Router = Poc_mcf.Router
module Vcg = Poc_auction.Vcg
module Prng = Poc_util.Prng

type config = {
  seed : int;
  params : Wan.params;
  demand_fraction : float;
  rule : Poc_auction.Acceptability.t;
  csp_share : float;
  bid_margin : float;
}

let default_config =
  {
    seed = 42;
    params = Wan.default_params;
    demand_fraction = 1.0 /. 40.0;
    rule = Poc_auction.Acceptability.Handle_load;
    csp_share = 0.5;
    bid_margin = 0.0;
  }

let scaled_config ?(sites = 30) ?(bps = 8) config =
  let params =
    {
      config.params with
      Wan.n_sites = sites;
      n_bps = bps;
      n_operators = max bps (sites * config.params.Wan.n_operators
                             / config.params.Wan.n_sites);
      operator_min_sites = max 4 (sites / 4);
      operator_max_sites = max 6 (sites * 9 / 20);
      colocation_threshold = max 2 (bps / 4);
      external_attachments = max 3 (sites / 9);
    }
  in
  { config with params }

type plan = {
  config : config;
  wan : Wan.t;
  matrix : Matrix.t;
  problem : Vcg.problem;
  outcome : Vcg.outcome;
  routing : Router.routing;
  members : Member.t list;
}

let build ?pool config =
  if config.demand_fraction <= 0.0 then Error "demand_fraction must be positive"
  else begin
    let wan = Wan.generate ~params:config.params ~seed:config.seed () in
    let total_capacity =
      Array.fold_left
        (fun acc (l : Wan.logical_link) -> acc +. l.capacity)
        0.0 wan.links
    in
    let rng = Prng.create (config.seed * 7919) in
    let matrix =
      Matrix.gravity rng wan
        ~total_gbps:(total_capacity *. config.demand_fraction)
        ()
    in
    let problem =
      Poc_auction.Setup.problem ~margin:config.bid_margin wan matrix
        ~rule:config.rule
    in
    match Vcg.run ?pool problem with
    | None -> Error "no acceptable link selection for this traffic matrix"
    | Some outcome ->
      let in_sl = Hashtbl.create 256 in
      List.iter
        (fun id -> Hashtbl.replace in_sl id ())
        outcome.Vcg.selection.selected;
      let routing =
        Router.route
          ~enabled:(fun id -> Hashtbl.mem in_sl id)
          wan.graph
          ~demands:(Matrix.undirected_pair_demands matrix)
      in
      let members = Member.of_wan wan matrix ~csp_share:config.csp_share () in
      Ok { config; wan; matrix; problem; outcome; routing; members }
  end

let backbone_enabled plan =
  let in_sl = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace in_sl id ()) plan.outcome.Vcg.selection.selected;
  fun id -> Hashtbl.mem in_sl id

let utilization_summary plan =
  let enabled = backbone_enabled plan in
  let utils =
    Poc_graph.Graph.fold_edges
      (fun e acc ->
        if enabled e.Poc_graph.Graph.id && e.capacity > 0.0 then begin
          let u = Router.usage plan.routing e.id /. e.capacity in
          if u > 0.0 then u :: acc else acc
        end
        else acc)
      plan.wan.graph []
  in
  Poc_util.Stats.summarize (Array.of_list utils)

let monthly_cost plan = plan.outcome.Vcg.total_payment
