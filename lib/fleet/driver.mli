(** The fleet driver: thousands of seeded scenario-months sharded
    across the domain pool under the chaos matrix.

    One {e scenario-month} is a full supervised market run
    ([Poc_resilience.Supervisor]): its own topology seed, market seed,
    fault schedule (one {!Chaos_matrix.cell}, cycling over the enabled
    matrix) and its own journal store under the shared store root
    at [<store>/<scenario-id>/].  Scenarios are independent, so the
    fleet shards whole runs across [Poc_util.Pool] — one scenario per
    task — and merges outcomes in scenario order, which makes the
    aggregate report byte-deterministic at every [--jobs] value.

    {2 Kill chains}

    A cell can carry up to two process-killing specs (a [Fault.Crash]
    and a [Fault.Storage] at distinct epochs).  The driver survives
    them inside the same fleet run with a {e kill chain} — the steps of
    [Poc_resilience.Recovery], shared with the daemon registry: when
    [Supervisor.Injected_crash] fires, the fired kill spec is dropped
    from the schedule (the journal digest ignores kill specs, so the
    recompiled schedule still matches), the failure is counted against
    the cap, the scenario's store is scrubbed (applied) and the run is
    resumed with [~honor_crashes:true] so the {e next} kill point can
    fire.  When scrub cannot recover the store, the scenario restarts
    from epoch 1 under the remaining schedule — either way the chain
    consumes one kill per attempt and terminates, and because the
    market is a pure function of its seeds the final per-scenario
    report is identical to an uninterrupted run of the same schedule
    minus its kill points.

    {2 Fleet-level crash safety}

    Each completed scenario writes a checksummed [RESULT] frame into
    its store (atomic rename), and the root carries a [FLEET] manifest
    pinning the fleet config.  If the fleet process itself dies — a
    [kill_after] drill or a real SIGKILL — rerunning with [resume]
    loads every valid [RESULT], re-runs only the missing scenarios, and
    produces a byte-identical aggregate report. *)

type config = {
  months : int;            (** scenario-months in the fleet, >= 1 *)
  axes : Chaos_matrix.axes;
  seed : int;              (** master seed; every per-scenario seed derives
                               from it *)
  topologies : int;        (** distinct topology seeds cycled over, >= 1 *)
  sites : int;
  bps : int;
  epochs : int;            (** market horizon per scenario, >= 4 *)
  segment_bytes : int;     (** journal rotation budget per scenario *)
  snapshot_every : int;
  store : string;          (** fleet store root *)
  flight : bool;           (** run every scenario's supervised loop with
                               [~flight:true]: the loop keeps a flight box
                               in the scenario's journal store, which each
                               resume of the kill chain reopens and a
                               restart from epoch 1 starts afresh, as it
                               does the journal.  Not fleet shape: the
                               manifest neither records nor checks it,
                               and journal bytes and the aggregate report
                               are identical either way. *)
}

val default_config : store:string -> config
(** months 1000, full axes, seed 2020, 8 topologies, 16 sites, 5 BPs,
    6 epochs, 2 KiB segments, snapshot every 2 epochs, no flight
    recorders. *)

val validate : config -> (unit, string) result
(** Every offending field in one message, [Fault]-style. *)

type scenario = {
  index : int;             (** 0-based position in the fleet *)
  id : string;             (** ["m00042-crash_pre_settle+torn_rename"] —
                               the store subdirectory name *)
  cell : Chaos_matrix.cell;
  topo_seed : int;         (** [seed + index mod topologies] *)
  market_seed : int;
  fault_seed : int;        (** schedule-compilation seed *)
}

val scenario : config -> int -> scenario
(** The [i]-th scenario's derived identity; pure, so resume re-derives
    the same fleet layout from the manifest alone. *)

type recoveries = {
  r_crash : int;
  r_short_write : int;
  r_torn_rename : int;
  r_lying_fsync : int;
  r_corrupt_byte : int;
}
(** Kills survived, by fault kind. *)

type outcome = {
  completed : bool;        (** the scenario reached its horizon *)
  kills : int;             (** injected process deaths fired *)
  recovered : recoveries;
  scrub_truncated : int;   (** segments truncated across the kill chain *)
  scrub_quarantined : int; (** segments quarantined across the kill chain *)
  restarts : int;          (** unrecoverable stores restarted from epoch 1 *)
  healthy : int;           (** epochs at each service level... *)
  degraded : int;
  carried : int;
  blackout : int;
  incidents : int;
  violations : int;        (** invariant breaches; expected 0 *)
  ladder_activations : int;
  total_spend : float;
  mean_price : float;      (** mean price per Gbps over the horizon *)
  mean_delivered : float;  (** mean delivered fraction over the horizon *)
  pob : float;             (** aggregate price of bandwidth of the last
                               settled epoch's auction *)
}

val encode_outcome : scenario -> outcome -> string
(** The scenario's [RESULT] file: a single checksummed [Codec] frame
    (scenario id pinned inside, so a mislaid file never loads). *)

val decode_outcome : scenario -> string -> outcome option
(** [None] on a torn, corrupt, version-skewed or wrong-scenario frame —
    resume then simply re-runs the scenario. *)

type report = {
  r_config : config;
  outcomes : (scenario * outcome) list;  (** scenario order *)
}

type run_result =
  | Finished of report
  | Interrupted of { completed_months : int }
      (** a [kill_after] drill stopped the fleet mid-run; the store
          resumes *)

val run :
  ?pool:Poc_util.Pool.t ->
  ?resume:bool ->
  ?kill_after:int ->
  config ->
  (run_result, string) result
(** Drive the whole fleet.  Fresh runs require a store root with no
    [FLEET] manifest and write one, creating the root and any missing
    parents; [~resume:true] requires the
    manifest, checks it against [config], loads completed scenarios
    from their [RESULT] frames and re-runs the rest.  [kill_after n]
    stops the fleet once at least [n] scenarios have completed in this
    invocation (the smoke test's SIGKILL stand-in).  [pool] shards
    scenarios across domains; the report is byte-identical at every
    pool size and across kill + resume.  [Error] on an invalid config,
    an unplannable topology, a store root that cannot be created, or a
    store/manifest mismatch. *)

val report_to_json : report -> string
(** Aggregate survival/service/welfare report as one JSON document:
    fleet identity, survival counters (kills, per-fault-kind
    recoveries, scrub actions, restarts), service-level epoch counts,
    welfare means, and a per-cell breakdown in matrix order.  Contains
    no absolute paths and no runtime-only state (timings, resume-load
    counts), so it is byte-identical across [--jobs] values and across
    kill + resume.  Floats are printed with [%.9g]. *)

val render : report -> string
(** Human summary: fleet header, survival and welfare lines, and a
    per-cell table. *)

val latency_rollup_json : config -> string
(** Per-cell wall-clock latency rollup, in matrix order:
    [{"cells":[{"cell","months","sum_s","p50_s","p95_s","p99_s",
    "max_s"}]}], read from the labeled [poc_fleet_cell_seconds]
    histograms the fleet observes one scenario-month wall time each
    into.  Wall-clock dependent by nature, so it is kept out of
    {!report_to_json} (whose bytes stay deterministic); the same
    series reach Prometheus via [Poc_obs.Metrics.to_prometheus]. *)
