(** One recovery policy for a journaled run that fails — by raising (an
    injected kill, a disk that keeps failing) or by refusing to reopen.
    The fleet driver's kill chain and the daemon registry's run
    lifecycle both walk these steps; each keeps its own reporting.

    - {e Consume the kill}: the specs that fired are dropped, so the
      next attempt walks the rest of its chain instead of dying at the
      same point again (the journal digest ignores kill specs, so the
      store still matches).
    - {e Count the failure}: up to [cap] failures retry, each after the
      backoff schedule's delay for that failure (its last delay
      repeating); the next one quarantines the run, store kept.
    - {e Scrub before reopening}: damage is truncated and unreadable
      segments quarantined, so resume falls back to the last durable
      checkpoint. *)

type t
(** One run's failures so far and its kill specs not yet fired. *)

val create : cap:int -> delays:float list -> Fault.spec list -> t
(** [delays] in seconds; [[]] retries at once. *)

val specs : t -> Fault.spec list
(** The kill specs not yet fired, in order: the next attempt's schedule. *)

val failures : t -> int

val consume : t -> epoch:int -> phase:Fault.phase -> Fault.spec list
(** The kill at [epoch]'s [phase] fired: drop its specs and return them. *)

type verdict =
  | Retry of float  (** retry after this many seconds *)
  | Quarantine      (** past the cap: give the run up *)

val fail : t -> verdict
(** Count one failure. *)

val scrub : string -> Journal.scrub_report option
(** Scrub the store in place on a fresh real disk (a storage fault's
    damage stays with the attempt it hit); [None] when there is no
    store.  The run may reopen only if the report says [recovered]. *)
