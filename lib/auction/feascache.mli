(** Shared deterministic feasibility/cost cache for the auction.

    The optimizer's two expensive pure functions of a candidate link
    set — the acceptability verdict and the selection cost — are keyed
    on the enabled-set bit-string alone and memoized here, and only
    here: a selector called without a cache memoizes into a private
    one.  The key names no problem, so a cache is safe only because it
    serves exactly one: {!Vcg.run} creates one per call.  The memo
    survives across the Clarke pivots of one settle loop:
    pivot selections revisit many of the same candidate sets the cold
    selection already probed (the problem itself is identical, only the
    banned set changes), and under {!Vcg.run} each hit saves a full
    multi-commodity routing solve.

    {2 Determinism}

    Both cached functions are pure: the verdict and the cost are fully
    determined by the key, and every writer computed its value with the
    same deterministic oracle.  A hit therefore returns exactly the
    value a fresh evaluation would produce, so selections, payments,
    and journal bytes are identical with the cache on or off, at every
    [--jobs] value — only the work counters (hits, misses, routing
    solves) change.  Which probe populates an entry first can vary with
    scheduling; the value cannot.

    {2 Concurrency}

    Reads go to a merged table plus a per-domain private shard; writes
    go only to the writer's own shard.  A hit in the merged table takes
    no lock; a probe that misses it, and every write, takes the shard
    registry's mutex for the shard lookup only.  {!join} folds all
    shards into the merged table — {!Vcg.run} calls it at its pool-join
    points, where workers are quiescent, making each settle round's
    discoveries visible to the next round.  Hit/miss totals are
    exported through {!Poc_obs.Metrics} as [poc_feascache_hits_total] /
    [poc_feascache_misses_total] and per-cache via {!stats}. *)

type t

val enabled : unit -> bool
(** The global switch.  Defaults to [true]. *)

val set_enabled : bool -> unit
(** Flip the global switch ([poc-cli market --no-feas-cache] and the
    cache-equivalence tests use this).  A cache created while the
    switch is off never stores an entry, never hits and counts
    nothing, so turning it off turns off all memoization in the
    auction.  Affects only subsequently created caches. *)

val create : digest:string -> t
(** Fresh empty cache.  [digest] is a label for the caller's records;
    nothing reads it.  One cache serves one problem: entries carry no
    problem identity, so callers must not share a cache across
    problems. *)

val find_feas : t -> string -> bool option
(** [find_feas t key] looks the enabled-set bit-string up in the merged
    table, then in the calling domain's shard.  Counts a hit or a miss. *)

val add_feas : t -> string -> bool -> unit
(** Record a verdict in the calling domain's shard (visible to other
    domains after the next {!join}). *)

val find_cost : t -> string -> float option
(** Like {!find_feas} for the selection-cost table. *)

val add_cost : t -> string -> float -> unit
(** Like {!add_feas} for the selection-cost table. *)

val join : t -> unit
(** Fold every domain shard into the merged table and empty the shards.
    Must only be called while no other domain is probing this cache —
    i.e. at pool-join points. *)

val stats : t -> int * int
(** [(hits, misses)] accumulated by this cache across all domains. *)
