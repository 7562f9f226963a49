(** Flat, Bigarray-backed views of a {!Graph.t} for continent-scale
    instances.

    The list-of-lists adjacency inside {!Graph.t} is convenient while a
    topology is being built, but at the 10^5-link scale the ROADMAP
    targets it costs a pointer chase and a tuple allocation per edge
    visit.  This module compiles a graph into two flat forms:

    - {!t}, a compressed-sparse-row (CSR) adjacency over Bigarray
      storage: one [int] slab for row offsets, one for neighbor nodes,
      one for incident edge ids, and [float64] slabs for the per-visit
      edge weight and per-edge capacity.  Per-node neighbor order is
      ascending edge-insertion order — exactly the order
      {!Graph.neighbors} yields — so algorithms moved onto the CSR
      produce bit-identical results.
    - {!Buf}, a pair of [float64] slabs (residual / usage) indexed by
      edge id: the flow state a router solves in.

    Memory, for a graph with [V] nodes and [E] undirected edges
    (8-byte elements): CSR ≈ 8·(V+1) + 3·16·E + 8·E bytes ≈ 56·E for
    E ≫ V, i.e. ~5.6 MB at E = 10^5 — small enough to keep one per
    worker domain.  (An int32 variant would halve the index slabs; the
    [int] kind is used so element reads stay unboxed immediates.)

    {!of_graph} memoizes per domain: the compiled CSR is cached in
    domain-local storage keyed on (physical graph, {!Graph.version}),
    so the auction's thousands of feasibility probes against one fixed
    topology compile it once per domain, not once per probe.  The cache
    holds a strong reference to the last graph it compiled. *)

type int_slab = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_slab =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  nodes : int;          (** node count of the source graph *)
  edges : int;          (** edge count of the source graph *)
  row_start : int_slab; (** length [nodes + 1]; node [u]'s incident
                            half-edges live at indices
                            [row_start.{u} .. row_start.{u+1} - 1] *)
  col : int_slab;       (** length [2·edges]; neighbor node per half-edge *)
  eid : int_slab;       (** length [2·edges]; edge id per half-edge *)
  weight : float_slab;  (** length [2·edges]; edge weight per half-edge *)
  capacity : float_slab;(** length [edges]; capacity per edge id *)
}

val int_slab_create : int -> int_slab
(** Allocate an uninitialized [int] slab of the given length (0 is
    legal and yields an empty slab). *)

val float_slab_create : int -> float_slab
(** Allocate an uninitialized [float64] slab of the given length. *)

val build : Graph.t -> t
(** Compile the graph to CSR, bypassing the domain-local cache.  O(V+E). *)

val of_graph : Graph.t -> t
(** Like {!build} but memoized per domain on (graph identity,
    {!Graph.version}): repeated calls against an unmodified graph are
    O(1).  Safe to call concurrently from pool workers — each domain
    keeps its own compiled copy, so there is no shared mutable state. *)

(** Per-edge flow state for routing algorithms: two [float64] slabs
    (residual and usage) indexed by edge id.  Capacity lives in the CSR
    (field [capacity] of {!t}).  The router keeps these in per-domain
    scratch and loads every entry it reads at the start of a call. *)
module Buf : sig
  type buf = { residual : float_slab; usage : float_slab }

  val create : int -> buf
  (** [create edges] allocates zeroed residual/usage slabs. *)
end
