(** The open bandwidth market over time (Section 3.3's motivation).

    The POC re-runs its auction every leasing epoch.  Between epochs:

    - long-haul costs drift down (the paper cites 24-27% annual lease
      price declines) with per-BP volatility;
    - CSP-backed BPs that overbought capacity may {e recall} leased
      links when they need them internally, and return them later;
    - the traffic matrix grows.

    The simulation reports, per epoch, what the POC spends, the posted
    break-even price, the selection, and supplier concentration — the
    evidence that a leased-line POC tracks falling market prices
    instead of locking in incumbent rates. *)

type bp_strategy =
  | Truthful
  | Markup of float     (** bid = cost × (1 + m) *)
  | Recallable of float (** truthful, but each epoch this fraction of
                            its links is recalled (unavailable) *)

type config = {
  epochs : int;
  cost_trend : float;      (** per-epoch multiplicative drift, e.g. -0.02 *)
  cost_volatility : float; (** per-BP per-epoch lognormal-ish noise *)
  demand_growth : float;   (** per-epoch traffic multiplier, e.g. 1.03 *)
  strategies : (int * bp_strategy) list; (** default Truthful *)
  seed : int;
}

val default_config : config

val validate_config : config -> (unit, string) result
(** Checks every field and reports all offending ones in a single
    message, e.g. ["Epochs: epochs must be positive; demand_growth
    must be positive"]. *)

val describe_config : config -> string
(** One-line, stable rendering of the config, e.g.
    ["epochs=12 seed=1 cost_trend=-0.02 ..."] — the daemon's startup
    banner and [STATUS] output use it. *)

type failure =
  | No_acceptable_selection
      (** the offer pool is non-empty but no acceptable subset exists
          under the plan's rule *)
  | Empty_offer_pool
      (** every offered link was recalled or withdrawn this epoch *)

val failure_name : failure -> string

type epoch_result = {
  epoch : int;
  spend : float;            (** POC monthly spend (payments + contracts) *)
  price_per_gbps : float;   (** spend / traffic volume *)
  selected_links : int;
  recalled_links : int;
  supplier_hhi : float;     (** Herfindahl index over BP payments, in [0,1] *)
  failure : failure option; (** [None] when the auction cleared *)
}

(** {2 The market core}

    {!run} loops over {!advance}; the supervised loop
    ([Poc_resilience.Supervisor]) embeds the same {!state} and calls
    the same {!advance}, so a fault-free supervised run replays the
    plain market draw for draw. *)

type state = {
  rng : Poc_util.Prng.t;
  cost_level : float array;  (** per-BP cost multiplier, from 1 *)
  mutable matrix : Poc_traffic.Matrix.t;  (** grown once per epoch *)
}

val initial_state : Poc_core.Planner.plan -> config -> state

val restore_state :
  Poc_core.Planner.plan -> config -> epoch:int -> prng_state:int64 ->
  cost_level:float array -> state
(** The state after [epoch] epochs, from a checkpointed PRNG cursor and
    cost levels; the matrix is re-grown bit-identically. *)

val advance :
  config -> Poc_core.Planner.plan -> state ->
  Poc_auction.Bid.t array * (int, unit) Hashtbl.t
(** One epoch of drift, in this draw order: cost drift, recall draws,
    the epoch's bids, then demand growth.  Returns the bids and the
    recalled link ids. *)

val epoch_seconds : Poc_obs.Metrics.Histogram.t
val drift_seconds : Poc_obs.Metrics.Histogram.t
val auction_seconds : Poc_obs.Metrics.Histogram.t
(** [poc_epoch_seconds], [poc_phase_drift_seconds] and
    [poc_phase_auction_seconds], observed by both loops. *)

val run :
  ?pool:Poc_util.Pool.t -> Poc_core.Planner.plan -> config -> epoch_result list
(** Replays [config.epochs] auctions over the plan's offer pool with
    evolving costs, recalls and demand.  Uses the plan's acceptability
    rule.  The epoch loop owns no domains itself: the caller creates
    the pool once (e.g. [Poc_util.Pool.with_pool]) and passes it down,
    and every epoch's auction fans out over it.  Results are identical
    with or without a pool. *)

val supplier_hhi : Poc_auction.Vcg.outcome -> float
(** Concentration of the POC's BP payments. *)
