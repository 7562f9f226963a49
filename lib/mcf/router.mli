(** Multi-commodity routing / feasibility oracle.

    The auction's acceptability predicate A(OL) asks: does a candidate
    link subset provide "enough bandwidth to handle the traffic
    matrix"?  Exact multi-commodity flow is an LP; we use the standard
    path-based heuristic — demands in decreasing order, each split
    across successive congestion-aware shortest paths — which is
    deterministic, fast, and conservative (it may call a feasible set
    infeasible, never the reverse).  The same oracle, restricted to
    surviving links, expresses the failure constraints of Figure 2.

    Demands are given per unordered node pair (links are undirected);
    use {!Poc_traffic.Matrix.undirected_pair_demands} upstream.

    Every call may run on any domain, beside calls on other domains.
    Search state (node arrays and the {!Poc_graph.Heap}), compact
    adjacencies, the residual/usage buffers every call solves in, a
    failure batch's crossing index and the table a repair sums its
    displaced demand in live in per-domain scratch, reused from call
    to call.  A routing that {!route}, {!reroute_without_edge} or
    {!route_toggle} returns holds its own copy of the edges it carries
    flow on, so its memory is proportional to its flow, not to the
    graph, and later calls never change it.  The counters
    [poc_router_dijkstra_total] and [poc_router_paths_total] are
    tallied in the scratch and added once per call (once per check in
    a failure batch). *)

type demand = int * int * float
(** [(node_a, node_b, gbps)] with [node_a <> node_b] and [gbps >= 0]. *)

type chunk = {
  src : int;
  dst : int;
  gbps : float;
  edge_ids : int list; (** path taken, in order *)
}
(** One routed piece of a demand (demands may split across paths). *)

type flow
(** The Gbps a routing carries on each edge, held for the edges that
    carry flow only; read it with {!usage}. *)

type routing = {
  feasible : bool;
  chunks : chunk array;
  unrouted : demand list;        (** residual demand that found no path *)
  flow : flow;                   (** per-edge Gbps carried, see {!usage} *)
  enabled_capacity : float;      (** total capacity of enabled edges *)
}

val usage : routing -> int -> float
(** [usage r eid] is the Gbps [r] carries on edge [eid], exactly as the
    solve left it (a residue below the router's epsilon included), and
    0 on an edge it does not use.  O(log k) for a routing that carries
    flow on [k] edges. *)

type toggle =
  | Remove of int  (** disable this currently-enabled edge id *)
  | Add of int     (** enable this currently-disabled edge id *)
(** A single-link change to the enabled set, for {!route_toggle}. *)

val route :
  ?enabled:(int -> bool) ->
  ?congestion_alpha:float ->
  Poc_graph.Graph.t ->
  demands:demand list ->
  routing
(** [route g ~demands] routes every demand over the enabled subgraph.
    [congestion_alpha] (default 1.0) scales the utilization penalty in
    the path metric; 0 gives pure-latency shortest paths. *)

val route_toggle :
  ?enabled:(int -> bool) ->
  ?congestion_alpha:float ->
  Poc_graph.Graph.t ->
  demands:demand list ->
  base:routing ->
  toggle ->
  routing
(** [route_toggle g ~demands ~base t] answers the routing question for
    the enabled set with the single-link change [t] applied, reusing
    [base] = [route ~enabled g ~demands] instead of re-solving:

    - [Remove eid] drains the chunks crossing [eid] and re-routes only
      the displaced commodities on the residual capacity
      ({!reroute_without_edge}); if the repair does not fit it falls
      back to a from-scratch {!route} on the reduced set.
    - [Add eid] keeps a feasible [base] verbatim (the new link carries
      nothing) and only grows [enabled_capacity]; an infeasible [base]
      is re-solved from scratch with the extra link.

    Because the fallback is exactly the from-scratch solve, the
    feasibility verdict is a superset of {!route}'s: whenever the
    from-scratch oracle says feasible, so does [route_toggle] (the
    repair path can only add feasible answers the conservative
    heuristic would have missed).  The returned routing is always valid
    for the toggled enabled set — chunks use only enabled links,
    capacities are respected, and a removed link carries nothing.
    [enabled] must describe the set [base] was computed against:
    [Remove] requires [enabled eid], [Add] requires [not (enabled eid)]
    ([Invalid_argument] otherwise).  Repair-vs-fallback counts are
    exported as [poc_router_toggle_repairs_total] /
    [poc_router_toggle_scratch_total]. *)

val max_utilization : Poc_graph.Graph.t -> routing -> float
(** Highest usage/capacity ratio over enabled edges with capacity. *)

val total_routed : routing -> float

val used_edges : routing -> int list
(** Edge ids carrying positive flow, sorted. *)

val reroute_without_edge :
  ?enabled:(int -> bool) ->
  Poc_graph.Graph.t ->
  base:routing ->
  failed_edge:int ->
  routing option
(** [reroute_without_edge g ~base ~failed_edge] produces a complete
    routing over the enabled set minus [failed_edge], reusing [base]:
    chunks not crossing the failed edge keep their paths, the rest are
    re-routed on the residual capacity.  [None] when the re-route does
    not fit.  This is the incremental primitive behind the failure
    checks and the auction's prune loops.  The repair works in the
    calling domain's scratch; the returned routing shares nothing with
    it (see {!usage}). *)

val survives_failure :
  ?enabled:(int -> bool) ->
  Poc_graph.Graph.t ->
  demands:demand list ->
  base:routing ->
  failed_edge:int ->
  bool
(** [survives_failure g ~demands ~base ~failed_edge] checks feasibility
    with one edge removed, reusing [base]: demands not touching the
    failed edge keep their paths; affected demand is re-routed on the
    residual capacity.  Conservative in the same sense as {!route}.
    The verdict is {!reroute_without_edge}'s, but no routing is built:
    the check works in the calling domain's scratch and allocates no
    buffer. *)

val survives_all_single_failures :
  ?enabled:(int -> bool) ->
  ?pool:Poc_util.Pool.t ->
  ?limit:int ->
  Poc_graph.Graph.t ->
  demands:demand list ->
  routing ->
  bool
(** True when the routing survives the failure of each used edge in
    turn (unused edges cannot hurt and are skipped).  Edges are checked
    most-loaded first (ties by ascending id); [limit] keeps only the
    first [limit] of that order — the auction's single-failure prune
    spot-checks 25 — and by default every used edge is checked.

    Each check is {!survives_failure}'s verdict against the same
    immutable base.  The base residual, a crossing index (for each
    edge, the base chunks that cross it, in chunk order) and a compact
    adjacency (the half-edges that can hold residual in some check) are
    built once per batch in the calling domain's scratch, so no batch
    allocates a buffer.  Each check copies the residual into its own
    domain's scratch and reads the chunks its failed edge displaces
    from the index, where {!survives_failure} finds them by scanning
    every chunk; both then re-route the displaced demand the same
    way.  With [pool] the checks fan out across worker
    domains; the verdict is identical at every pool size (the serial
    path short-circuits, the pooled path checks every edge).  The
    router's counters move exactly as they would under one
    {!survives_failure} call per checked edge. *)
