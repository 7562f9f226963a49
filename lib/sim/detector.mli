(** Neutrality-violation detection from observed flow performance.

    The POC's terms-of-service are contractual; enforcement needs
    measurement (cf. the paper's citation of large-scale differential-
    treatment studies).  The detector compares delivery ratios of
    flows arriving at the same LMP: if one source's (or application's)
    traffic fares markedly worse than the rest of that LMP's inbound
    traffic while other LMPs deliver the same source normally, the LMP
    is flagged and a {!Poc_core.Terms.observation} is synthesized for
    the compliance engine. *)

type suspicion = {
  lmp : int;                (** destination member id *)
  against : against;
  delivery : float;          (** mean delivery ratio of the victim group *)
  baseline : float;          (** mean delivery ratio of everyone else *)
}

and against = Src of int | App of string

val detect : Fabric.report -> suspicion list
(** [detect report] flags (lmp, group) pairs whose delivery ratio is
    below 0.75 times the LMP's baseline, with
    congestion discounted: groups whose shortfall is explained by
    link congestion (the same share every flow on that path suffers)
    are not flagged. *)

val to_observations : suspicion list -> Poc_core.Terms.observation list
(** Convert suspicions into terms-of-service observations (basis
    [Commercial_preference] — the detector has ruled out congestion,
    and no posted price or security excuse is on file). *)

val audit : Fabric.report -> (Poc_core.Terms.observation * string) list
(** Detect, convert and judge in one step: the violations the POC
    would act on. *)
