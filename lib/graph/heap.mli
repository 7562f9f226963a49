(** Binary min-heap of ints keyed by floats, the one priority queue of
    the tree (path searches, the router, the fabric and availability
    simulations).  Path searches push node ids; a caller with another
    kind of entry encodes it as an int (the availability simulation
    pushes [2·id] for a failure and [2·id+1] for a repair).

    Keys sit in a flat float array and values in a parallel [int]
    array, so the heap stores no per-entry record, no sift step takes
    a write barrier or a float-array tag check, and {!clear} keeps both
    arrays for reuse.  What a call still costs: under dune's default
    dev profile ([-opaque], no cross-module inlining) every operation
    is a call through the module's closure, and in any profile a caller
    boxes the float key of each {!push} (one 16-byte minor allocation),
    as [push] is too large to inline.  On the Figure 2 instance a
    release-profile build ran the VCG auctions within about 1% of the
    dev build.  Entries with equal keys pop in a fixed order that
    depends only on the sequence of pushes and pops; every path choice
    of the router rests on it. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val clear : t -> unit
(** Remove every entry, keeping the storage for later pushes. *)

val push : t -> float -> int -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val min_value : t -> int
(** The value of the minimum-key entry, left in place.  Allocation-free;
    raises [Invalid_argument] on an empty heap. *)

val remove_min : t -> unit
(** Remove the minimum-key entry.  Allocation-free; raises
    [Invalid_argument] on an empty heap. *)

val pop : t -> (float * int) option
(** Removes and returns the minimum-key entry. *)
