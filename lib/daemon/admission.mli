(** Bounded ingress queue with admission control, deterministic
    shedding and escalating backpressure.

    Live updates admitted between epochs wait here until the next
    [EPOCH] request drains them.  The queue never grows past its
    high-water mark: once full, a new entry is {e rejected} with a
    retry-after hint that escalates exponentially while the pressure
    lasts — unless it outranks the lowest-priority queued entry, in
    which case that victim is {e shed} (bids are superseding updates, so
    dropping the least important one under pressure degrades service
    quality, never correctness) and the newcomer admitted in its place.

    Everything is deterministic: the victim is the strictly
    lowest-priority entry, oldest (smallest [seq]) among ties, and the
    retry-after schedule depends only on the consecutive-rejection
    count.  Duplicate suppression is by [seq]: entries at or below the
    highest admitted [seq] answer {!Duplicate}, which is what makes a
    client's retry-until-acked loop exactly-once. *)

type 'a entry = {
  seq : int;          (** client-chosen, strictly increasing *)
  apply_epoch : int;  (** the epoch this update lands on *)
  priority : int;     (** higher outranks lower when shedding *)
  payload : 'a;
}

type 'a decision =
  | Admitted of { shed : 'a entry option }
      (** queued; [shed] is the displaced victim, if admission
          happened over a full queue *)
  | Rejected of { retry_after : float }  (** full, and nothing outranked *)
  | Duplicate                            (** [seq] already admitted *)

type 'a t

val create : ?high_water:int -> unit -> 'a t
(** [high_water] defaults to 64 and must be >= 1.  A rejection's
    [retry_after] is 0.05 s, doubling per consecutive rejection up to
    1 s. *)

val high_water : 'a t -> int
val depth : 'a t -> int

val last_seq : 'a t -> int
(** Highest admitted [seq]; [0] initially. *)

val set_last_seq : 'a t -> int -> unit
(** Restore the dedup floor after a resume (max over the intake log). *)

val offer : 'a t -> 'a entry -> 'a decision
(** Admission control as described above.  A successful admission
    resets the rejection streak. *)

val force : 'a t -> 'a entry -> unit
(** Enqueue without admission control, preserving seq order — the
    resume path re-queuing entries that were already admitted (and
    durably logged) before the crash. *)

val drop : 'a t -> seq:int -> unit
(** Remove a queued entry by [seq] (no-op when absent) — the rollback
    path when the intake log refuses the matching append. *)

val drain : 'a t -> epoch:int -> 'a entry list
(** Remove and return, in seq order, every queued entry with
    [apply_epoch <= epoch]. *)
