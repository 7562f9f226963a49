(** Shortest paths and connectivity over (sub)graphs.

    Every function takes an optional [enabled] predicate over edge ids;
    disabled edges are treated as absent.  This is how the auction
    evaluates candidate link subsets and how failure scenarios are
    expressed. *)

type path = Graph.edge list
(** Edges in order from source to destination; empty for src = dst. *)

val path_weight : path -> float
(** Sum of edge weights. *)

val dijkstra :
  ?enabled:(int -> bool) -> Graph.t -> Graph.node ->
  float array * int option array
(** [dijkstra g src] is [(dist, pred)] where [dist.(v)] is the shortest
    weighted distance from [src] ([infinity] if unreachable) and
    [pred.(v)] the id of the edge used to reach [v]. *)

val shortest_path :
  ?enabled:(int -> bool) -> Graph.t -> Graph.node -> Graph.node -> path option
(** Minimum-weight path, [None] when disconnected. *)

val hop_distance :
  ?enabled:(int -> bool) -> Graph.t -> Graph.node -> Graph.node -> int option
(** BFS hop count. *)

val components : ?enabled:(int -> bool) -> Graph.t -> int array
(** [components g] labels every node with a component index. *)

val component_count : ?enabled:(int -> bool) -> Graph.t -> int

val is_connected : ?enabled:(int -> bool) -> Graph.t -> bool
(** True when the whole node set is one component (trivially true for
    graphs with fewer than two nodes). *)
