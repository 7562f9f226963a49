(** The open bandwidth market over time (Section 3.3's motivation):
    the model the POC's epoch loop re-runs its auction over.

    The POC re-runs its auction every leasing epoch.  Between epochs:

    - long-haul costs drift down (the paper cites 24-27% annual lease
      price declines) with per-BP volatility;
    - CSP-backed BPs that overbought capacity may {e recall} leased
      links when they need them internally, and return them later;
    - the traffic matrix grows.

    This module holds the market's config, its drifting {!state} and
    one epoch's {!advance}; the epoch loop itself — auction, routing,
    settlement, faults and journal — is [Poc_resilience.Supervisor],
    whose report gives, per epoch, what the POC spends, the posted
    break-even price and the selection: the evidence that a
    leased-line POC tracks falling market prices instead of locking
    in incumbent rates.  {!supplier_hhi} measures supplier
    concentration of any outcome. *)

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

(** {2 The market core}

    The supervised loop ([Poc_resilience.Supervisor]) embeds a {!state}
    and calls {!advance} once per epoch; a snapshot records the PRNG
    cursor and cost levels, and {!restore_state} rebuilds the rest. *)

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

val supplier_hhi : Poc_auction.Vcg.outcome -> float
(** Concentration of the POC's BP payments. *)
