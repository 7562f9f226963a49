(** Bandwidth-provider bids.

    Section 3.3: each BP α offers a set of links Lα and a mapping Cα
    from the powerset of Lα to a minimal acceptable (monthly) price,
    allowing multi-link discounts and other non-additive pricing.  A
    full powerset table is exponential, so we support the compact
    families that cover the paper's examples:

    - {e additive}: each link has its own price; a subset costs the sum.
    - {e volume discount}: additive, multiplied by a non-increasing
      factor that depends on how many links are leased (bulk discount).
    - {e bundled}: additive plus named all-or-nothing bundle rebates
      (lease this whole bundle, get a fixed discount).

    Subsets containing links the BP did not offer have infinite price. *)

type t

val additive : (int * float) list -> t
(** [additive prices] with [(link_id, price)] pairs; prices must be
    non-negative and link ids distinct. *)

val volume_discount : (int * float) list -> tiers:(int * float) list -> t
(** [volume_discount prices ~tiers] applies factor [f] from the
    largest tier [(min_links, f)] with [min_links <= |subset|].
    Tiers must have factors in (0, 1] and thresholds >= 2; subsets
    below every tier pay the plain sum. *)

val bundled : (int * float) list -> bundles:(int list * float) list -> t
(** [bundled prices ~bundles] subtracts [rebate] for every bundle whose
    links are all present in the subset.  Rebates must be non-negative
    and no larger than the bundle's additive price. *)

val links : t -> int list
(** The offered link ids, sorted. *)

val cost : t -> int list -> float
(** [cost t subset] is Cα(subset).  [infinity] if [subset] contains a
    link not offered by this BP; 0 for the empty subset. *)

val single_price : t -> int -> float
(** Standalone price of one offered link (used for greedy ordering).
    Raises [Not_found] for links not offered. *)

val scale : t -> float -> t
(** [scale t f] multiplies every price by [f] (misreporting helper for
    strategyproofness experiments). *)
