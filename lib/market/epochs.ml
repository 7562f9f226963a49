module Prng = Poc_util.Prng
module Vcg = Poc_auction.Vcg
module Bid = Poc_auction.Bid
module Matrix = Poc_traffic.Matrix
module Planner = Poc_core.Planner

type bp_strategy = Truthful | Markup of float | Recallable of float

type config = {
  epochs : int;
  cost_trend : float;
  cost_volatility : float;
  demand_growth : float;
  strategies : (int * bp_strategy) list;
  seed : int;
}

let default_config =
  {
    epochs = 12;
    cost_trend = -0.02;
    cost_volatility = 0.05;
    demand_growth = 1.02;
    strategies = [];
    seed = 1;
  }

(* Every bad field is reported at once so a caller fixing a config
   does not play whack-a-mole with successive Invalid_argument. *)
let config_problems config =
  let bad = ref [] in
  let check ok msg = if not ok then bad := msg :: !bad in
  check (config.epochs > 0) "epochs must be positive";
  check
    (Float.is_finite config.cost_trend && config.cost_trend > -1.0)
    "cost_trend must be finite and > -1";
  check
    (Float.is_finite config.cost_volatility && config.cost_volatility >= 0.0)
    "cost_volatility must be finite and non-negative";
  check
    (Float.is_finite config.demand_growth && config.demand_growth > 0.0)
    "demand_growth must be positive";
  List.iter
    (fun (bp, strategy) ->
      check (bp >= 0) (Printf.sprintf "strategy for negative BP id %d" bp);
      match strategy with
      | Truthful -> ()
      | Markup m ->
        check
          (Float.is_finite m && m >= 0.0)
          (Printf.sprintf "markup for BP %d must be finite and non-negative" bp)
      | Recallable f ->
        check
          (Float.is_finite f && f >= 0.0 && f <= 1.0)
          (Printf.sprintf "recall fraction for BP %d must be in [0,1]" bp))
    config.strategies;
  List.rev !bad

let validate_config config =
  match config_problems config with
  | [] -> Ok ()
  | problems -> Error ("Epochs: " ^ String.concat "; " problems)

let describe_config config =
  Printf.sprintf
    "epochs=%d seed=%d cost_trend=%g cost_volatility=%g demand_growth=%g \
     strategies=%d"
    config.epochs config.seed config.cost_trend config.cost_volatility
    config.demand_growth
    (List.length config.strategies)

let supplier_hhi (outcome : Vcg.outcome) =
  let payments =
    Array.to_list outcome.bp_results
    |> List.map (fun (r : Vcg.bp_result) -> r.payment)
    |> List.filter (fun p -> p > 0.0)
  in
  let total = List.fold_left ( +. ) 0.0 payments in
  if total <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc p ->
        let share = p /. total in
        acc +. (share *. share))
      0.0 payments

let strategy_of config bp =
  match List.assoc_opt bp config.strategies with
  | Some s -> s
  | None -> Truthful

type state = {
  rng : Prng.t;
  cost_level : float array;
  mutable matrix : Matrix.t;
}

let initial_state (plan : Planner.plan) config =
  {
    rng = Prng.create config.seed;
    cost_level = Array.make (Array.length plan.Planner.problem.Vcg.bids) 1.0;
    matrix = plan.Planner.matrix;
  }

let restore_state (plan : Planner.plan) config ~epoch ~prng_state ~cost_level =
  (* Demand grows by scaling the matrix once per epoch.  Replaying the
     same number of scalings from the base matrix repeats the same float
     operations in the same order, so the restored matrix is
     bit-identical to the live one — a stored cumulative scalar would
     not be (float multiplication does not reassociate). *)
  let matrix = ref plan.Planner.matrix in
  for _ = 1 to epoch do
    matrix := Matrix.scale !matrix config.demand_growth
  done;
  {
    rng = Prng.of_state prng_state;
    cost_level = Array.copy cost_level;
    matrix = !matrix;
  }

let advance config (plan : Planner.plan) st =
  let base_bids = plan.Planner.problem.Vcg.bids in
  (* Drift costs. *)
  for bp = 0 to Array.length st.cost_level - 1 do
    let noise =
      1.0 +. (config.cost_volatility *. ((2.0 *. Prng.float st.rng) -. 1.0))
    in
    st.cost_level.(bp) <-
      Float.max 0.05 (st.cost_level.(bp) *. (1.0 +. config.cost_trend) *. noise)
  done;
  (* Recalls: strategy-driven withdrawal of offered links. *)
  let recalled = Hashtbl.create 64 in
  Array.iteri
    (fun bp bid ->
      match strategy_of config bp with
      | Recallable fraction ->
        List.iter
          (fun id ->
            if Prng.bernoulli st.rng fraction then
              Hashtbl.replace recalled id ())
          (Bid.links bid)
      | Truthful | Markup _ -> ())
    base_bids;
  (* Epoch bids: cost level times strategy markup. *)
  let bids =
    Array.mapi
      (fun bp bid ->
        let markup =
          match strategy_of config bp with
          | Markup m -> 1.0 +. m
          | Truthful | Recallable _ -> 1.0
        in
        Bid.scale bid (st.cost_level.(bp) *. markup))
      base_bids
  in
  st.matrix <- Matrix.scale st.matrix config.demand_growth;
  (bids, recalled)
