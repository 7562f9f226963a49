(** The degradation ladder: what the POC does when an auction comes up
    infeasible instead of aborting the epoch.

    Rungs are tried in order, each costing one attempt:

    + retry under the {e same} acceptability rule with the demand
      matrix relaxed by each of {!relax_factors} (shed load, keep the
      resilience guarantee);
    + step the rule down — Constraint #3 -> #2 -> #1 — at full demand
      (keep the load, shed the failure guarantee);
    + connectivity only: lease the cheapest spanning forest of the
      surviving offer pool, pay-as-bid, and deliver what routes;
    + contracted external transit: fall back to the external ISPs'
      virtual links alone.

    The first rung that produces a priced outcome wins; [None] means
    even external transit is gone (blackout). *)

type step =
  | Relax_demand of float        (** same rule, demand scaled by the factor *)
  | Step_down of Poc_auction.Acceptability.t
  | Connectivity_only
  | External_transit

val relax_factors : float list
(** The demand factors of the relax rungs, in the order tried:
    [[0.9; 0.75; 0.5]]. *)

type engaged = {
  step : step;                      (** the rung that succeeded *)
  attempts : int;                   (** rungs tried, including this one *)
  outcome : Poc_auction.Vcg.outcome;
  demand_scale : float;             (** 1.0 except under [Relax_demand] *)
}

val rungs : rule:Poc_auction.Acceptability.t -> step list
(** The ladder for a plan using [rule]: the three relax rungs, then a
    step down to each weaker rule (none under Constraint #1, two under
    #3), then connectivity only and external transit — five to seven
    rungs. *)

val engage :
  banned:(int -> bool) ->
  ?pool:Poc_util.Pool.t ->
  Poc_auction.Vcg.problem ->
  engaged option
(** Runs the ladder over the problem restricted to unbanned links.
    With [?pool] the rungs — independent pure attempts — are evaluated
    {e speculatively in parallel}, one rung per worker, and the first
    success in rung order wins; without it they are tried serially.
    The engaged rung, its outcome and the reported [attempts] (the
    winner's 1-based rung index) are identical with or without the
    pool, at every pool size.  The pool alone picks the path: a traced
    run takes the same one as an untraced run (each domain keeps its
    own span stack). *)

val pay_as_bid :
  Poc_auction.Vcg.problem -> int list -> Poc_auction.Vcg.outcome option
(** Price an explicit link selection at its bids (plus contracted
    virtual prices); [None] on an empty selection.  The supervisor
    uses this to carry a previous epoch's selection forward. *)

val step_to_string : step -> string
(** Stable rendering for the incident log, e.g. ["relax(0.75)"]. *)
