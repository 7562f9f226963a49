(** Binary min-heap keyed by floats, the one priority queue of the tree
    (path searches, the router, the fabric and availability
    simulations).

    Keys sit in a flat float array and values in a parallel array, so
    the heap stores no per-entry record, and {!clear} keeps both for
    reuse.  A caller compiled without cross-module inlining (dune's
    default dev profile passes [-opaque]) still boxes the float key of
    each {!push}.  Entries with equal keys pop in a fixed order that
    depends only on the sequence of pushes and pops; every path choice
    of the router rests on it. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val clear : 'a t -> unit
(** Remove every entry, keeping the storage for later pushes. *)

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val min_value : 'a t -> 'a
(** The value of the minimum-key entry, left in place.  Allocation-free;
    raises [Invalid_argument] on an empty heap. *)

val remove_min : 'a t -> unit
(** Remove the minimum-key entry.  Allocation-free; raises
    [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-key entry. *)
