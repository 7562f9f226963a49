(** The strategy-proof bandwidth auction (Section 3.3).

    Given offered links OL (BP links plus the external ISPs' virtual
    links VL), bids Cα, a traffic matrix, and an acceptability rule,
    the POC selects SL = argmin C(L) over acceptable L and pays each
    BP the Clarke pivot amount

      Pα = Cα(SLα) + (C(SL−α) − C(SL))

    where SL−α is the best acceptable selection when α's links are
    withdrawn.  Virtual links are paid their contracted price and are
    not part of the mechanism.

    Exact subset minimization is NP-hard; {!select_greedy} is the
    POC's published open algorithm (cheapest-bandwidth prefix by
    binary search, then a most-expensive-first prune).  Because the
    optimizer is heuristic, the classical VCG guarantees hold exactly
    under {!select_exact} (used in tests on small instances) and to
    heuristic accuracy under {!select_greedy}; payments are clamped so
    individual rationality Pα ≥ Cα(SLα) always holds.

    {2 Parallelism}

    Every entry point takes an optional [?pool] ([Poc_util.Pool.t]).
    With a pool, the Clarke-pivot marginal economies (one per winning
    BP), the two ranking arms of the greedy ensemble, the warm/cold
    pivot candidate pair, and the single-failure spot checks fan out
    across worker domains.  All parallelized units are pure functions
    of immutable inputs combined in a fixed order, so selections,
    payments, and PoB are {e bit-identical} with or without a pool, at
    any pool size — pinned by property tests over seeded random
    problems.  Work counters measure honest totals and may differ
    (e.g. the parallel spot check does not short-circuit). *)

type problem = {
  graph : Poc_graph.Graph.t;
  demands : Poc_mcf.Router.demand list;
  bids : Bid.t array;                  (** one per BP, indexed by BP id *)
  virtual_prices : (int * float) list; (** (link id, contracted monthly price) *)
  rule : Acceptability.t;
}

type selection = {
  selected : int list; (** sorted link ids, BP and virtual *)
  cost : float;        (** C(SL) *)
}

type bp_result = {
  bp : int;
  selected_links : int list; (** SLα *)
  bid_cost : float;          (** Cα(SLα) *)
  payment : float;           (** Pα *)
  pob : float;               (** (Pα − Cα(SLα)) / Cα(SLα); 0 when Cα = 0 *)
}

type outcome = {
  selection : selection;
  virtual_cost : float;      (** contracted spend on virtual links *)
  bp_results : bp_result array;
  total_payment : float;     (** Σ Pα + virtual cost: the POC's spend *)
}

val validate : problem -> (unit, string) result
(** Checks bids cover disjoint link-id sets, virtual ids are distinct
    from bid ids, and every id names a graph edge. *)

val link_price : problem -> int -> float
(** Standalone price of a link (bid price, or contracted price for a
    virtual link).  Raises [Not_found] for unoffered links. *)

val selection_cost : problem -> int list -> float
(** C(L): bid cost per BP of its share plus contracted virtual cost. *)

val owner_of_link : problem -> int -> int option
(** BP owning the link; [None] for virtual links. *)

val select_greedy :
  ?banned:(int -> bool) ->
  ?cache:Feascache.t ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  selection option
(** Cheapest acceptable set found by the open greedy algorithm;
    [None] when even the full unbanned offer set is unacceptable.
    With [?pool] the two ranking arms run concurrently.  [?cache]
    (a {!Feascache.t} that has served only this problem) shares
    feasibility verdicts and selection costs with other selections over
    the same problem; without one, each arm memoizes into a private
    cache of its own.  It never changes the result. *)

val select_greedy_single :
  ranking:[ `Unit_price | `Absolute_price ] ->
  ?banned:(int -> bool) ->
  ?cache:Feascache.t ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  selection option
(** One arm of {!select_greedy}'s two-ranking ensemble, exposed for
    ablation studies: rank candidate links by price-per-Gbps or by
    absolute price. *)

val select_warm :
  ?banned:(int -> bool) ->
  base:selection ->
  ?cache:Feascache.t ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  selection option
(** Warm-started optimization: begin from [base] (minus banned links),
    repair to acceptability, then prune.  Used by {!run} for the pivot
    selections SL−α so that C(SL−α) − C(SL) measures α's replacement
    cost rather than optimizer noise. *)

val select_exact :
  ?banned:(int -> bool) ->
  ?cache:Feascache.t ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  selection option
(** Brute-force minimum over all subsets: cheapest acceptable subset,
    ties broken by the smallest enumeration mask (a total order, so the
    winner is independent of evaluation grouping).  With [?pool] the
    mask range is sharded into fixed-size chunks across worker domains
    and the per-chunk winners folded in range order — bit-identical to
    the serial scan at every pool size.  Raises [Invalid_argument]
    when more than 22 links are offered. *)

val run :
  ?select:
    (?banned:(int -> bool) ->
    ?cache:Feascache.t ->
    problem ->
    selection option) ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  outcome option
(** Full mechanism: selection plus a Clarke-pivot payment per BP.
    With [?pool] the per-winner pivot recomputations fan out across
    the pool's domains; the outcome is identical to the serial run.
    A caller-supplied [?select] is honored verbatim (wire the pool
    into the closure yourself if you want both).

    Because the optimizer is heuristic, an SL−α computed for a pivot
    can come out cheaper than SL itself (it is also acceptable for the
    unrestricted problem); [run] therefore adopts the cheapest
    selection encountered before settling payments, which restores
    C(SL−α) ≥ C(SL) and non-negative pivots by construction.

    BPs with an empty SLα receive 0.  If some SL−α is unacceptable
    (the paper assumes this away), that BP's payment is its bid cost
    (pivot clamped at 0) and the condition is reported via logs.
    [None] when no acceptable selection exists at all.

    [run] creates one {!Feascache.t} for the problem and hands it to
    every selection — the cold one, each pivot, and any caller-supplied
    [?select] (forward it to the [Vcg.select_*] entry points to
    benefit) — merging worker shards at each pool-join point.  The
    cache memoizes pure functions, so outcomes, payments, and journal
    bytes are identical with it on or off ({!Feascache.set_enabled}). *)

val run_pay_as_bid :
  ?select:
    (?banned:(int -> bool) ->
    ?cache:Feascache.t ->
    problem ->
    selection option) ->
  ?pool:Poc_util.Pool.t ->
  problem ->
  outcome option
(** The naive alternative the paper's strategy-proofness argument is
    set against: winners are simply paid their bids (PoB = 0 by
    definition).  Cheaper for the POC at truthful bids, but it pays
    BPs to inflate — the ablation benchmark quantifies this. *)
