module Prng = Poc_util.Prng
module Vcg = Poc_auction.Vcg
module Bid = Poc_auction.Bid
module Matrix = Poc_traffic.Matrix
module Planner = Poc_core.Planner
module Trace = Poc_obs.Trace
module Metrics = Poc_obs.Metrics
module Clock = Poc_obs.Clock
module Phase = Poc_obs.Phase

let epoch_seconds =
  Metrics.histogram ~help:"Whole-epoch wall clock (seconds)" Metrics.default
    "poc_epoch_seconds"

let drift_seconds =
  Metrics.histogram ~help:"Market drift + bid construction phase (seconds)"
    Metrics.default "poc_phase_drift_seconds"

let auction_seconds =
  Metrics.histogram ~help:"Auction phase wall clock (seconds)" Metrics.default
    "poc_phase_auction_seconds"

let m_epochs =
  Metrics.counter ~help:"Market epochs simulated" Metrics.default
    "poc_market_epochs_total"

let m_auction_failures =
  Metrics.counter ~help:"Epochs whose auction produced no outcome"
    Metrics.default "poc_market_auction_failures_total"

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

type failure = No_acceptable_selection | Empty_offer_pool

let failure_name = function
  | No_acceptable_selection -> "no acceptable selection"
  | Empty_offer_pool -> "empty offer pool"

type epoch_result = {
  epoch : int;
  spend : float;
  price_per_gbps : float;
  selected_links : int;
  recalled_links : int;
  supplier_hhi : float;
  failure : failure option;
}

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

let run ?pool (plan : Planner.plan) config =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let st = initial_state plan config in
  let results = ref [] in
  for epoch = 1 to config.epochs do
    let ep_sp = Trace.span "epoch" in
    if Trace.enabled () then Trace.add_attr ep_sp "epoch" (Trace.Int epoch);
    let ep_t0 = Clock.now_us () in
    let bids, recalled, problem =
      Phase.run ~flight:None ~epoch drift_seconds "drift" (fun _ ->
          let bids, recalled = advance config plan st in
          ( bids,
            recalled,
            {
              plan.Planner.problem with
              Vcg.bids;
              demands = Matrix.undirected_pair_demands st.matrix;
            } ))
    in
    let select ?(banned = fun _ -> false) ?cache p =
      Vcg.select_greedy
        ~banned:(fun id -> banned id || Hashtbl.mem recalled id)
        ?cache ?pool p
    in
    let volume = Matrix.total st.matrix in
    let pool_nonempty =
      problem.Vcg.virtual_prices <> []
      || Array.exists
           (fun bid ->
             List.exists (fun id -> not (Hashtbl.mem recalled id)) (Bid.links bid))
           bids
    in
    let fail reason =
      Metrics.Counter.inc m_auction_failures;
      if Trace.enabled () then
        Trace.event "auction_failed"
          ~attrs:[ ("reason", Trace.Str (failure_name reason)) ];
      results :=
        {
          epoch;
          spend = nan;
          price_per_gbps = nan;
          selected_links = 0;
          recalled_links = Hashtbl.length recalled;
          supplier_hhi = nan;
          failure = Some reason;
        }
        :: !results
    in
    Phase.run ~flight:None ~epoch auction_seconds "auction" (fun _ ->
        if not pool_nonempty then fail Empty_offer_pool
        else
          match Vcg.run ~select ?pool problem with
          | None -> fail No_acceptable_selection
          | Some outcome ->
            results :=
              {
                epoch;
                spend = outcome.Vcg.total_payment;
                price_per_gbps =
                  (if volume > 0.0 then outcome.Vcg.total_payment /. volume
                   else 0.0);
                selected_links = List.length outcome.Vcg.selection.selected;
                recalled_links = Hashtbl.length recalled;
                supplier_hhi = supplier_hhi outcome;
                failure = None;
              }
              :: !results);
    Metrics.Counter.inc m_epochs;
    Metrics.Histogram.observe epoch_seconds
      ((Clock.now_us () -. ep_t0) *. 1e-6);
    Trace.finish ep_sp
  done;
  List.rev !results
