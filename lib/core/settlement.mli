(** The Section 3.2 payment structure as a double-entry ledger.

    Every entity pays directly for what it receives:

    - the POC pays BPs their auction payments and external ISPs their
      contracted virtual-link prices;
    - each LMP and directly-attached CSP pays the POC for usage at a
      single posted price per Gbps, set so the POC breaks even
      (it is a nonprofit, not a charity);
    - retail customers pay their LMP for access.

    There is deliberately no entry from CSPs to remote LMPs: that would
    be a termination fee, which the terms-of-service forbid. *)

type party =
  | Poc
  | Bp_party of int
  | External_isp_party of int
  | Member_party of int (** member id from {!Member} *)
  | Users_of of int     (** aggregated retail customers of an LMP member *)

type entry = { src : party; dst : party; amount : float; what : string }

type ledger = {
  entries : entry list;
  usage_price : float; (** posted $/Gbps/month charged by the POC *)
  retail_multiplier : float;
}

val of_plan : Planner.plan -> ?margin:float -> ?retail_multiplier:float ->
  unit -> ledger
(** Build the month's ledger from a plan.  [margin] (default 0) is a
    reserve the POC may keep on top of cost recovery; the usage price
    is (total POC spend × (1+margin)) / total member usage.
    [retail_multiplier] (default 2.5) scales what users pay their LMP
    relative to the LMP's POC bill. *)

val net : ledger -> party -> float
(** Income minus outlay for one party. *)

val poc_net : ledger -> float

val conservation : ledger -> float
(** Sum of nets over every party appearing in the ledger — always 0 up
    to float noise. *)

val check : ledger -> (unit, string) result
(** The ledger invariants the supervised epoch loop asserts after every
    settled epoch: zero-sum within [1e-6] and a
    finite posted price.  All offending checks are reported in one
    message. *)

val party_name : Planner.plan -> party -> string

val render : Planner.plan -> ledger -> string
(** Table of aggregate flows (one row per party with nonzero activity). *)
