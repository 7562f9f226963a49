(** Undirected multigraph with weighted, capacitated edges.

    This is the shared substrate under the topology generator, the
    multi-commodity router, and the bandwidth auction.  Edges carry a
    latency-like [weight] and a bandwidth [capacity].  Algorithms take
    an optional [enabled] predicate over edge ids so callers (notably
    the auction, which evaluates many candidate link subsets) can work
    on subgraphs without copying. *)

type t

type node = int

type edge = {
  id : int;
  u : node;
  v : node;
  weight : float;   (** routing metric, e.g. propagation latency in ms *)
  capacity : float; (** bandwidth in Gbps *)
}

val create : unit -> t

val add_node : t -> node
(** Appends a node and returns its index (indices are dense from 0). *)

val add_nodes : t -> int -> unit
(** [add_nodes g n] appends [n] nodes. *)

val add_edge : t -> node -> node -> weight:float -> capacity:float -> int
(** Adds an undirected edge, returning its id (ids are dense from 0).
    Requires both endpoints to exist, be distinct, [weight >= 0] and
    [capacity >= 0]. *)

val node_count : t -> int
val edge_count : t -> int

val version : t -> int
(** Mutation counter: bumped by every {!add_node} / {!add_edge}.  Flat
    compiled views of the graph ({!Sparse.of_graph}) key their caches
    on (graph identity, version), so a stale view is never served after
    the graph grows. *)

val edge : t -> int -> edge
(** Edge by id.  Raises [Invalid_argument] on an unknown id. *)

val edges : t -> edge array
(** All edges, by id. *)

val other_endpoint : edge -> node -> node
(** [other_endpoint e n] is the endpoint of [e] that is not [n].
    Raises [Invalid_argument] if [n] is not an endpoint. *)

val incident : t -> node -> edge list
(** Edges touching a node. *)

val neighbors : t -> node -> (node * edge) list
(** [(other_endpoint, edge)] pairs for each incident edge. *)

val degree : t -> node -> int

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
