(** Deterministic fault-schedule DSL for chaos runs.

    A chaos run is described by a list of {!spec}s — "two links fail at
    epoch 3 for 2 epochs", "BP 4 goes bankrupt at epoch 5" — which
    {!compile} turns into a concrete, fully-resolved {!schedule}: every
    random choice (which links fail, which links a recall takes back)
    is drawn from a [Poc_util.Prng] seeded by the caller, so the same
    seed and specs always produce byte-identical fault timelines and,
    downstream, byte-identical incident logs. *)

type phase =
  | Pre_auction  (** after the epoch's faults land, before its auction *)
  | Pre_settle   (** after the auction/ladder decision, before settlement
                     — the epoch's journal record is left torn mid-write *)
  | Post_settle  (** after the epoch settled and its record was flushed *)

val phase_to_string : phase -> string
(** ["pre_auction"], ["pre_settle"], ["post_settle"]. *)

val phase_of_string : string -> phase option
(** Inverse of {!phase_to_string}; [None] on anything else. *)

type spec =
  | Link_failure of { at_epoch : int; count : int; duration : int }
      (** [count] distinct BP links picked at compile time go down at
          [at_epoch] and come back [duration] epochs later *)
  | Bp_bankruptcy of { at_epoch : int; bp : int }
      (** every link the BP offers is withdrawn permanently *)
  | Capacity_recall of { at_epoch : int; bp : int; fraction : float; duration : int }
      (** the BP takes back [fraction] of its links for [duration]
          epochs (the CSP-backed-BP recall of Section 3.3) *)
  | Offer_shrinkage of { at_epoch : int; fraction : float }
      (** [fraction] of all BP links leave the pool permanently *)
  | Traffic_surge of { at_epoch : int; factor : float; duration : int }
      (** the traffic matrix is multiplied by [factor] for [duration]
          epochs *)
  | Crash of { at_epoch : int; phase : phase }
      (** kill the supervised process at the given point of the epoch.
          Compiling a [Crash] draws no randomness, so adding one to a
          spec list never changes which links the other specs pick; a
          resumed run ignores crash points, so kill + resume is
          comparable to the same schedule without the crash. *)
  | Storage of { at_epoch : int; phase : phase; fault : Disk.fault }
      (** a {!Crash} that additionally damages the journal's disk state
          the way real hardware does: the process dies at the given
          point {e and} {!Disk.power_cut} applies the fault (short
          write, torn rename, lying fsync, silent byte corruption).
          Like [Crash], compiling one draws no randomness and a
          resumed run ignores it. *)

val spec_fired : epoch:int -> phase:phase -> spec -> bool
(** The spec is the [Crash] or [Storage] point that kills the process
    at [epoch]'s [phase] — the one a recovery loop drops before it
    resumes, so the same kill does not fire again. *)

type event =
  | Link_down of int
  | Link_up of int
  | Bp_exit of int
  | Withdraw of int list (** sorted link ids, permanent *)
  | Surge of float
  | Surge_over of float
  | Crash_point of phase (** process dies here (supervisor raises) *)
  | Disk_point of phase * Disk.fault
      (** process dies here after the disk fault's damage lands *)

type schedule
(** Concrete events keyed by epoch; immutable once compiled. *)

val validate : Poc_topology.Wan.t -> spec list -> (unit, string) result
(** Checks every spec and reports all offending fields in one message
    (epochs >= 1, durations >= 1, fractions in [0,1], factors positive,
    BP ids within the WAN). *)

val compile :
  Poc_topology.Wan.t -> seed:int -> spec list -> (schedule, string) result
(** Resolves random choices deterministically from [seed].  Fails with
    the {!validate} message on a bad spec list. *)

val none : schedule
(** The empty schedule: no fault ever lands, so the supervised loop
    runs the plain market.  Equal to [compile wan ~seed []] for every
    [wan] and [seed], journal digest included. *)

val at : schedule -> int -> event list
(** Events taking effect at a given epoch, in compile order. *)

val events : schedule -> (int * event) list
(** The full timeline, sorted by epoch (stable in compile order). *)

val event_to_string : event -> string
(** Stable rendering used by the incident log, e.g.
    ["link_down(17)"] or ["bp_exit(4)"]. *)

val describe : schedule -> int -> string
(** All events at an epoch joined with ["; "]; ["-"] when none.  Runs
    of more than four events of the same kind are compressed to a
    count, e.g. ["link_down x139"], so mass recalls stay readable.
    Crash and disk-fault points are omitted: they kill the process
    rather than the market, and hiding them keeps a resumed run's
    incident log byte-identical to an uninterrupted one. *)
