module Planner = Poc_core.Planner
module Vcg = Poc_auction.Vcg
module Acc = Poc_auction.Acceptability
module Epochs = Poc_market.Epochs
module Fault = Poc_resilience.Fault
module Disk = Poc_resilience.Disk
module Journal = Poc_resilience.Journal
module Recovery = Poc_resilience.Recovery
module Supervisor = Poc_resilience.Supervisor
module Codec = Poc_util.Codec
module Pool = Poc_util.Pool
module Table = Poc_util.Table
module Metrics = Poc_obs.Metrics
module Trace = Poc_obs.Trace
module Clock = Poc_obs.Clock
module Black_box = Poc_resilience.Black_box

(* --- instrumentation ----------------------------------------------------- *)

let m_months =
  Metrics.counter ~help:"Fleet scenario-months driven to completion"
    Metrics.default "poc_fleet_months_total"

let m_kills =
  Metrics.counter ~help:"Injected process deaths fired across the fleet"
    Metrics.default "poc_fleet_kills_total"

let m_scrub_actions =
  Metrics.counter ~help:"Segments truncated or quarantined by fleet scrubs"
    Metrics.default "poc_fleet_scrub_actions_total"

let m_restarts =
  Metrics.counter ~help:"Scenarios restarted after an unrecoverable store"
    Metrics.default "poc_fleet_restarts_total"

let m_loaded =
  Metrics.counter ~help:"Scenario RESULT frames loaded by a fleet resume"
    Metrics.default "poc_fleet_loaded_results_total"

(* One labeled series per chaos-matrix cell: the fleet's latency story,
   sliced the same way its survival story is.  Registration is
   idempotent and the instruments are domain-safe, so pool workers
   observe into them directly. *)
let h_cell cell_name =
  Metrics.histogram
    ~help:"Scenario-month wall time by chaos-matrix cell (seconds)"
    ~labels:[ ("cell", cell_name) ]
    Metrics.default "poc_fleet_cell_seconds"

(* --- config -------------------------------------------------------------- *)

type config = {
  months : int;
  axes : Chaos_matrix.axes;
  seed : int;
  topologies : int;
  sites : int;
  bps : int;
  epochs : int;
  segment_bytes : int;
  snapshot_every : int;
  store : string;
  flight : bool;
}

let default_config ~store =
  {
    months = 1000;
    axes =
      { Chaos_matrix.with_crash = true; with_storage = true; with_degrade = true };
    seed = 2020;
    topologies = 8;
    sites = 16;
    bps = 5;
    epochs = 6;
    segment_bytes = 2048;
    snapshot_every = 2;
    store;
    flight = false;
  }

let validate cfg =
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (cfg.months >= 1, "months must be >= 1");
        (cfg.topologies >= 1, "topologies must be >= 1");
        (cfg.sites >= 4, "sites must be >= 4");
        (cfg.bps >= 2, "bps must be >= 2");
        (cfg.epochs >= 4, "epochs must be >= 4 (the chaos matrix needs \
                           distinct kill epochs inside the horizon)");
        (cfg.segment_bytes >= 256, "segment-bytes must be >= 256");
        (cfg.snapshot_every >= 1, "snapshot-every must be >= 1");
        (String.trim cfg.store <> "", "store root must be non-empty");
      ]
  in
  match problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

(* --- scenario derivation ------------------------------------------------- *)

type scenario = {
  index : int;
  id : string;
  cell : Chaos_matrix.cell;
  topo_seed : int;
  market_seed : int;
  fault_seed : int;
}

let scenario cfg i =
  let cells = Chaos_matrix.cells cfg.axes in
  let cell = List.nth cells (i mod List.length cells) in
  {
    index = i;
    id = Printf.sprintf "m%05d-%s" i (Chaos_matrix.cell_name cell);
    cell;
    topo_seed = cfg.seed + (i mod cfg.topologies);
    market_seed = cfg.seed + 10_000 + i;
    fault_seed = cfg.seed + 20_000 + i;
  }

let market_config cfg (scen : scenario) =
  { Epochs.default_config with
    Epochs.epochs = cfg.epochs;
    seed = scen.market_seed;
  }

let planner_config cfg ~topo_seed =
  Planner.scaled_config ~sites:cfg.sites ~bps:cfg.bps
    { Planner.default_config with Planner.seed = topo_seed; rule = Acc.Handle_load }

(* --- outcomes ------------------------------------------------------------ *)

type recoveries = {
  r_crash : int;
  r_short_write : int;
  r_torn_rename : int;
  r_lying_fsync : int;
  r_corrupt_byte : int;
}

let no_recoveries =
  { r_crash = 0; r_short_write = 0; r_torn_rename = 0; r_lying_fsync = 0;
    r_corrupt_byte = 0 }

type outcome = {
  completed : bool;
  kills : int;
  recovered : recoveries;
  scrub_truncated : int;
  scrub_quarantined : int;
  restarts : int;
  healthy : int;
  degraded : int;
  carried : int;
  blackout : int;
  incidents : int;
  violations : int;
  ladder_activations : int;
  total_spend : float;
  mean_price : float;
  mean_delivered : float;
  pob : float;
}

let aggregate_pob (o : Vcg.outcome) =
  let paid =
    Array.to_list o.Vcg.bp_results
    |> List.filter (fun (r : Vcg.bp_result) -> r.Vcg.payment > 0.0)
  in
  let cost = List.fold_left (fun a r -> a +. r.Vcg.bid_cost) 0.0 paid in
  let pay = List.fold_left (fun a r -> a +. r.Vcg.payment) 0.0 paid in
  if cost > 0.0 then (pay -. cost) /. cost else 0.0

let outcome_of_report ~kills ~recovered ~scrub_truncated ~scrub_quarantined
    ~restarts (r : Supervisor.report) =
  let count pred = List.length (List.filter pred r.Supervisor.epochs) in
  let n = List.length r.Supervisor.epochs in
  let mean f =
    if n = 0 then 0.0
    else
      List.fold_left (fun a e -> a +. f e) 0.0 r.Supervisor.epochs
      /. float_of_int n
  in
  {
    completed = true;
    kills;
    recovered;
    scrub_truncated;
    scrub_quarantined;
    restarts;
    healthy =
      count (fun e -> e.Supervisor.status = Supervisor.Healthy);
    degraded =
      count (fun e ->
          match e.Supervisor.status with
          | Supervisor.Degraded _ -> true
          | _ -> false);
    carried = count (fun e -> e.Supervisor.status = Supervisor.Carried);
    blackout = count (fun e -> e.Supervisor.status = Supervisor.Blackout);
    incidents = List.length r.Supervisor.incidents;
    violations = List.length r.Supervisor.violations;
    ladder_activations = r.Supervisor.ladder_activations;
    total_spend =
      List.fold_left (fun a e -> a +. e.Supervisor.spend) 0.0
        r.Supervisor.epochs;
    mean_price = mean (fun e -> e.Supervisor.price_per_gbps);
    mean_delivered = mean (fun e -> e.Supervisor.delivered_fraction);
    pob =
      (match r.Supervisor.final_plan with
      | Some p -> aggregate_pob p.Planner.outcome
      | None -> 0.0);
  }

let failed_outcome ~kills ~recovered ~scrub_truncated ~scrub_quarantined
    ~restarts =
  {
    completed = false;
    kills;
    recovered;
    scrub_truncated;
    scrub_quarantined;
    restarts;
    healthy = 0;
    degraded = 0;
    carried = 0;
    blackout = 0;
    incidents = 0;
    violations = 0;
    ladder_activations = 0;
    total_spend = 0.0;
    mean_price = 0.0;
    mean_delivered = 0.0;
    pob = 0.0;
  }

(* --- RESULT frames -------------------------------------------------------- *)

let result_name = "RESULT"
let result_version = 1

(* The scenario id is pinned inside, so a mislaid file never loads.
   Refuses trailing bytes. *)
let result_format scen =
  Codec.(
    exact
      (record
         (fun completed kills r_crash r_short_write r_torn_rename r_lying_fsync
              r_corrupt_byte scrub_truncated scrub_quarantined restarts healthy
              degraded carried blackout incidents violations ladder_activations
              total_spend mean_price mean_delivered pob ->
           { completed; kills;
             recovered =
               { r_crash; r_short_write; r_torn_rename; r_lying_fsync;
                 r_corrupt_byte };
             scrub_truncated; scrub_quarantined; restarts; healthy; degraded;
             carried; blackout; incidents; violations; ladder_activations;
             total_spend; mean_price; mean_delivered; pob })
      |- const u8 result_version
      |- const string scen.id
      |+ field bool (fun o -> o.completed)
      |+ field int (fun o -> o.kills)
      |+ field int (fun o -> o.recovered.r_crash)
      |+ field int (fun o -> o.recovered.r_short_write)
      |+ field int (fun o -> o.recovered.r_torn_rename)
      |+ field int (fun o -> o.recovered.r_lying_fsync)
      |+ field int (fun o -> o.recovered.r_corrupt_byte)
      |+ field int (fun o -> o.scrub_truncated)
      |+ field int (fun o -> o.scrub_quarantined)
      |+ field int (fun o -> o.restarts)
      |+ field int (fun o -> o.healthy)
      |+ field int (fun o -> o.degraded)
      |+ field int (fun o -> o.carried)
      |+ field int (fun o -> o.blackout)
      |+ field int (fun o -> o.incidents)
      |+ field int (fun o -> o.violations)
      |+ field int (fun o -> o.ladder_activations)
      |+ field f64 (fun o -> o.total_spend)
      |+ field f64 (fun o -> o.mean_price)
      |+ field f64 (fun o -> o.mean_delivered)
      |+ field f64 (fun o -> o.pob)
      |> seal))

(* The payload of a whole single-frame file, or [None] for anything
   damaged, skewed or trailing. *)
let decode_single format data =
  match Codec.single data with
  | None -> None
  | Some payload -> (
    try Some (Codec.decode format payload) with Codec.Corrupt _ -> None)

let encode_outcome scen o = Codec.frame (Codec.encode (result_format scen) o)
let decode_outcome scen data = decode_single (result_format scen) data

(* --- FLEET manifest ------------------------------------------------------- *)

let manifest_name = "FLEET"
let manifest_version = 1

(* [store] is the caller's: the manifest pins the fleet's shape, not
   where the root happens to be mounted.  Refuses trailing bytes. *)
let manifest_format ~store =
  Codec.(
    exact
      (record
         (fun months with_crash with_storage with_degrade seed topologies sites
              bps epochs segment_bytes snapshot_every ->
           { months;
             axes = { Chaos_matrix.with_crash; with_storage; with_degrade };
             seed; topologies; sites; bps; epochs; segment_bytes;
             snapshot_every; store;
             (* Observability, not fleet shape: the manifest neither
                records nor checks it. *)
             flight = false })
      |- const u8 manifest_version
      |+ field int (fun c -> c.months)
      |+ field bool (fun c -> c.axes.Chaos_matrix.with_crash)
      |+ field bool (fun c -> c.axes.Chaos_matrix.with_storage)
      |+ field bool (fun c -> c.axes.Chaos_matrix.with_degrade)
      |+ field int (fun c -> c.seed)
      |+ field int (fun c -> c.topologies)
      |+ field int (fun c -> c.sites)
      |+ field int (fun c -> c.bps)
      |+ field int (fun c -> c.epochs)
      |+ field int (fun c -> c.segment_bytes)
      |+ field int (fun c -> c.snapshot_every)
      |> seal))

let encode_manifest cfg =
  Codec.frame (Codec.encode (manifest_format ~store:cfg.store) cfg)

let decode_manifest ~store data = decode_single (manifest_format ~store) data

let manifest_mismatches a b =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("months", a.months = b.months);
      ("matrix", a.axes = b.axes);
      ("seed", a.seed = b.seed);
      ("topologies", a.topologies = b.topologies);
      ("sites", a.sites = b.sites);
      ("bps", a.bps = b.bps);
      ("epochs", a.epochs = b.epochs);
      ("segment-bytes", a.segment_bytes = b.segment_bytes);
      ("snapshot-every", a.snapshot_every = b.snapshot_every);
    ]

(* --- one scenario: the kill chain ----------------------------------------- *)

(* Count a kill the chain survived by kind: the specs behind an
   [Injected_crash] are the ones [Recovery.consume] drops. *)
let add_recovery rc = function
  | Fault.Crash _ -> { rc with r_crash = rc.r_crash + 1 }
  | Fault.Storage { fault = Disk.Short_write _; _ } ->
    { rc with r_short_write = rc.r_short_write + 1 }
  | Fault.Storage { fault = Disk.Torn_rename; _ } ->
    { rc with r_torn_rename = rc.r_torn_rename + 1 }
  | Fault.Storage { fault = Disk.Lying_fsync _; _ } ->
    { rc with r_lying_fsync = rc.r_lying_fsync + 1 }
  | Fault.Storage { fault = Disk.Corrupt_byte _; _ } ->
    { rc with r_corrupt_byte = rc.r_corrupt_byte + 1 }
  | _ -> rc

let run_one cfg ?flight (scen : scenario) (plan : Planner.plan) =
  let dir = Filename.concat cfg.store scen.id in
  let market = market_config cfg scen in
  let all_specs =
    Chaos_matrix.specs scen.cell ~wan:plan.Planner.wan ~epochs:cfg.epochs
      ~salt:scen.index
  in
  let compile specs =
    match Fault.compile plan.Planner.wan ~seed:scen.fault_seed specs with
    | Ok s -> s
    | Error msg -> failwith (Printf.sprintf "fleet %s: %s" scen.id msg)
  in
  (* Every kill consumes at least one spec and costs at most one refused
     resume after it, so two failures per spec always suffice. *)
  let recovery =
    Recovery.create ~cap:(2 * List.length all_specs) ~delays:[] all_specs
  in
  let kills = ref 0 in
  let recovered = ref no_recoveries in
  let truncated = ref 0 in
  let quarantined = ref 0 in
  let restarts = ref 0 in
  let rec go ~fresh =
    let schedule = compile (Recovery.specs recovery) in
    (* Fresh fault metadata per attempt: a storage fault damages the
       disk it was armed on, never the next attempt's. *)
    let disk = Disk.real () in
    match
      if fresh then
        Ok
          (Supervisor.run ~journal:dir ?flight
             ~snapshot_every:cfg.snapshot_every
             ~segment_bytes:cfg.segment_bytes ~disk plan ~market ~schedule)
      else
        Supervisor.resume ~honor_crashes:true ~journal:dir ?flight ~disk plan
          ~market ~schedule
    with
    | Ok r -> Some r
    | Error _ ->
      (* e.g. a fleet SIGKILL landed before the first record made it
         to disk; a fresh run reclaims the directory. *)
      restart ()
    | exception Supervisor.Injected_crash { epoch; phase } ->
      incr kills;
      Metrics.Counter.inc m_kills;
      List.iter
        (fun sp -> recovered := add_recovery !recovered sp)
        (Recovery.consume recovery ~epoch ~phase);
      let resumable =
        match Recovery.scrub dir with
        | None -> false
        | Some rep ->
          List.iter
            (fun (e : Journal.segment_scrub) ->
              match e.Journal.action with
              | Journal.Scrub_truncated ->
                incr truncated;
                Metrics.Counter.inc m_scrub_actions
              | Journal.Scrub_quarantined ->
                incr quarantined;
                Metrics.Counter.inc m_scrub_actions
              | Journal.Scrub_none -> ())
            rep.Journal.segments;
          rep.Journal.recovered
      in
      (* Nothing durable survived the power cut: replay the month
         from epoch 1 under the not-yet-fired schedule. *)
      if resumable then retry ~fresh:false else restart ()
  and restart () =
    incr restarts;
    Metrics.Counter.inc m_restarts;
    retry ~fresh:true
  and retry ~fresh =
    match Recovery.fail recovery with
    | Recovery.Retry _ -> go ~fresh
    | Recovery.Quarantine -> None
  in
  let finishing = go ~fresh:true in
  let kills = !kills
  and recovered = !recovered
  and scrub_truncated = !truncated
  and scrub_quarantined = !quarantined
  and restarts = !restarts in
  match finishing with
  | Some report ->
    Metrics.Counter.inc m_months;
    outcome_of_report ~kills ~recovered ~scrub_truncated ~scrub_quarantined
      ~restarts report
  | None ->
    failed_outcome ~kills ~recovered ~scrub_truncated ~scrub_quarantined
      ~restarts

(* A scenario with no kill points that the {e fleet} died under: its
   store is a plain crashed journal, so plain resume recovers it; any
   failure (no store yet, nothing durable) falls back to a fresh run.
   Either path yields the uninterrupted report byte-for-byte. *)
let run_one_resumed cfg ?flight (scen : scenario) (plan : Planner.plan) =
  if Chaos_matrix.has_kills scen.cell then run_one cfg ?flight scen plan
  else begin
    let dir = Filename.concat cfg.store scen.id in
    let market = market_config cfg scen in
    let schedule =
      match
        Fault.compile plan.Planner.wan ~seed:scen.fault_seed
          (Chaos_matrix.specs scen.cell ~wan:plan.Planner.wan ~epochs:cfg.epochs
             ~salt:scen.index)
      with
      | Ok s -> Some s
      | Error _ -> None
    in
    match schedule with
    | None -> run_one cfg ?flight scen plan
    | Some schedule -> (
      match
        Supervisor.resume ~journal:dir ?flight ~disk:(Disk.real ()) plan
          ~market ~schedule
      with
      | Ok report ->
        Metrics.Counter.inc m_months;
        outcome_of_report ~kills:0 ~recovered:no_recoveries ~scrub_truncated:0
          ~scrub_quarantined:0 ~restarts:0 report
      | Error _ -> run_one cfg ?flight scen plan)
  end

(* --- the fleet ------------------------------------------------------------ *)

type report = {
  r_config : config;
  outcomes : (scenario * outcome) list;
}

type run_result =
  | Finished of report
  | Interrupted of { completed_months : int }

let result_path cfg (scen : scenario) =
  Filename.concat (Filename.concat cfg.store scen.id) result_name

let load_result disk cfg scen =
  let path = result_path cfg scen in
  if not (Disk.exists disk path) then None
  else
    match Disk.read_file disk path with
    | data -> decode_outcome scen data
    | exception Sys_error _ -> None

let store_result disk cfg scen outcome =
  Disk.write_file_atomic disk (result_path cfg scen)
    (encode_outcome scen outcome)

let build_plans ?pool cfg =
  let rec build k acc =
    if k >= cfg.topologies then Ok (Array.of_list (List.rev acc))
    else
      match
        Planner.build ?pool (planner_config cfg ~topo_seed:(cfg.seed + k))
      with
      | Ok plan -> build (k + 1) (plan :: acc)
      | Error msg ->
        Error (Printf.sprintf "topology seed %d: %s" (cfg.seed + k) msg)
  in
  build 0 []

let prepare_root ~resume disk cfg =
  let manifest = Filename.concat cfg.store manifest_name in
  if resume then begin
    if not (Disk.exists disk manifest) then
      Error
        (Printf.sprintf
           "no fleet manifest under %s: nothing to resume (run without \
            --resume to start one)"
           cfg.store)
    else
      match decode_manifest ~store:cfg.store (Disk.read_file disk manifest) with
      | None -> Error "fleet manifest is unreadable; start a fresh store root"
      | Some recorded -> (
        match manifest_mismatches recorded cfg with
        | [] -> Ok ()
        | ms ->
          Error
            ("fleet store was created with a different config ("
            ^ String.concat ", " ms
            ^ "); resume with the original flags or use a fresh root"))
  end
  else if Disk.exists disk manifest then
    Error
      (Printf.sprintf
         "%s already holds a fleet; pass --resume to finish it or pick a \
          fresh store root"
         cfg.store)
  else
    match
      Disk.mkdir_p disk cfg.store;
      Disk.write_file_atomic disk manifest (encode_manifest cfg)
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      Error (Printf.sprintf "cannot create fleet store %s: %s" cfg.store msg)

let run ?pool ?(resume = false) ?kill_after cfg =
  match validate cfg with
  | Error e -> Error e
  | Ok () -> (
    let disk = Disk.real () in
    match prepare_root ~resume disk cfg with
    | Error e -> Error e
    | Ok () -> (
      match build_plans ?pool cfg with
      | Error e -> Error e
      | Ok plans ->
        let span = Trace.span "fleet.run" in
        Trace.add_attr span "months" (Trace.Int cfg.months);
        Trace.add_attr span "matrix"
          (Trace.Str (Chaos_matrix.spec_of_axes cfg.axes));
        let scenarios = Array.init cfg.months (scenario cfg) in
        let outcomes = Array.make cfg.months None in
        if resume then
          Array.iteri
            (fun i scen ->
              match load_result disk cfg scen with
              | Some o ->
                Metrics.Counter.inc m_loaded;
                outcomes.(i) <- Some o
              | None -> ())
            scenarios;
        let pending =
          Array.of_list
            (List.filter
               (fun i -> outcomes.(i) = None)
               (List.init cfg.months Fun.id))
        in
        let task i =
          let scen = scenarios.(i) in
          let plan = plans.(i mod cfg.topologies) in
          let flight =
            if not cfg.flight then None
            else
              let open_box =
                if resume then Black_box.reopen else Black_box.create
              in
              Some
                (open_box
                   (Filename.concat
                      (Filename.concat cfg.store scen.id)
                      "FLIGHT"))
          in
          let t0 = Clock.now_us () in
          let o =
            if resume then run_one_resumed cfg ?flight scen plan
            else run_one cfg ?flight scen plan
          in
          Metrics.Histogram.observe
            (h_cell (Chaos_matrix.cell_name scen.cell))
            ((Clock.now_us () -. t0) *. 1e-6);
          Option.iter Black_box.close flight;
          store_result (Disk.real ()) cfg scen o;
          o
        in
        let chunk_size =
          match pool with
          | Some p when Pool.size p > 0 -> Pool.size p
          | _ -> 1
        in
        let completed_now = ref 0 in
        let interrupted = ref false in
        let cursor = ref 0 in
        while (not !interrupted) && !cursor < Array.length pending do
          let n = min chunk_size (Array.length pending - !cursor) in
          let chunk = Array.sub pending !cursor n in
          let results =
            match pool with
            | Some p -> Pool.map p task chunk
            | None -> Array.map task chunk
          in
          Array.iteri
            (fun k o -> outcomes.(chunk.(k)) <- Some o)
            results;
          cursor := !cursor + n;
          completed_now := !completed_now + n;
          Trace.event
            ~attrs:[ ("completed", Trace.Int !completed_now) ]
            "fleet.chunk";
          match kill_after with
          | Some k when !completed_now >= k && !cursor < Array.length pending
            ->
            interrupted := true
          | _ -> ()
        done;
        Trace.finish span;
        if !interrupted then Ok (Interrupted { completed_months = !completed_now })
        else begin
          let merged =
            Array.to_list
              (Array.mapi
                 (fun i o ->
                   match o with
                   | Some o -> (scenarios.(i), o)
                   | None ->
                     (* unreachable: every index was loaded or run *)
                     assert false)
                 outcomes)
          in
          Ok (Finished { r_config = cfg; outcomes = merged })
        end))

(* --- aggregate report ----------------------------------------------------- *)

type totals = {
  mutable t_months : int;
  mutable t_completed : int;
  mutable t_kills : int;
  mutable t_rec : recoveries;
  mutable t_truncated : int;
  mutable t_quarantined : int;
  mutable t_restarts : int;
  mutable t_healthy : int;
  mutable t_degraded : int;
  mutable t_carried : int;
  mutable t_blackout : int;
  mutable t_incidents : int;
  mutable t_violations : int;
  mutable t_ladder : int;
  mutable t_spend : float;
  mutable t_price : float;
  mutable t_delivered : float;
  mutable t_pob : float;
}

let fresh_totals () =
  {
    t_months = 0;
    t_completed = 0;
    t_kills = 0;
    t_rec = no_recoveries;
    t_truncated = 0;
    t_quarantined = 0;
    t_restarts = 0;
    t_healthy = 0;
    t_degraded = 0;
    t_carried = 0;
    t_blackout = 0;
    t_incidents = 0;
    t_violations = 0;
    t_ladder = 0;
    t_spend = 0.0;
    t_price = 0.0;
    t_delivered = 0.0;
    t_pob = 0.0;
  }

let add_outcome t (o : outcome) =
  t.t_months <- t.t_months + 1;
  if o.completed then t.t_completed <- t.t_completed + 1;
  t.t_kills <- t.t_kills + o.kills;
  t.t_rec <-
    {
      r_crash = t.t_rec.r_crash + o.recovered.r_crash;
      r_short_write = t.t_rec.r_short_write + o.recovered.r_short_write;
      r_torn_rename = t.t_rec.r_torn_rename + o.recovered.r_torn_rename;
      r_lying_fsync = t.t_rec.r_lying_fsync + o.recovered.r_lying_fsync;
      r_corrupt_byte = t.t_rec.r_corrupt_byte + o.recovered.r_corrupt_byte;
    };
  t.t_truncated <- t.t_truncated + o.scrub_truncated;
  t.t_quarantined <- t.t_quarantined + o.scrub_quarantined;
  t.t_restarts <- t.t_restarts + o.restarts;
  t.t_healthy <- t.t_healthy + o.healthy;
  t.t_degraded <- t.t_degraded + o.degraded;
  t.t_carried <- t.t_carried + o.carried;
  t.t_blackout <- t.t_blackout + o.blackout;
  t.t_incidents <- t.t_incidents + o.incidents;
  t.t_violations <- t.t_violations + o.violations;
  t.t_ladder <- t.t_ladder + o.ladder_activations;
  t.t_spend <- t.t_spend +. o.total_spend;
  t.t_price <- t.t_price +. o.mean_price;
  t.t_delivered <- t.t_delivered +. o.mean_delivered;
  t.t_pob <- t.t_pob +. o.pob

let mean_of t v = if t.t_months = 0 then 0.0 else v /. float_of_int t.t_months

(* %.9g: enough digits to pin every f64 we aggregate, few enough that
   the JSON is stable across platforms. *)
let fnum f = Printf.sprintf "%.9g" f

let cell_totals r =
  let cells = Chaos_matrix.cells r.r_config.axes in
  let table =
    List.map (fun cell -> (Chaos_matrix.cell_name cell, fresh_totals ())) cells
  in
  List.iter
    (fun ((scen : scenario), o) ->
      let name = Chaos_matrix.cell_name scen.cell in
      match List.assoc_opt name table with
      | Some t -> add_outcome t o
      | None -> ())
    r.outcomes;
  table

let report_to_json r =
  let cfg = r.r_config in
  let t = fresh_totals () in
  List.iter (fun (_, o) -> add_outcome t o) r.outcomes;
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"fleet\":{\"months\":%d,\"matrix\":\"%s\",\"cells\":%d,\"topologies\":%d,\"sites\":%d,\"bps\":%d,\"epochs\":%d,\"seed\":%d}"
    cfg.months
    (Metrics.json_escape (Chaos_matrix.spec_of_axes cfg.axes))
    (List.length (Chaos_matrix.cells cfg.axes))
    cfg.topologies cfg.sites cfg.bps cfg.epochs cfg.seed;
  Printf.bprintf b
    ",\"survival\":{\"completed\":%d,\"unrecovered\":%d,\"kills\":%d,\"recovered\":{\"crash\":%d,\"short_write\":%d,\"torn_rename\":%d,\"lying_fsync\":%d,\"corrupt_byte\":%d},\"scrub_truncated\":%d,\"scrub_quarantined\":%d,\"restarts\":%d}"
    t.t_completed (t.t_months - t.t_completed) t.t_kills t.t_rec.r_crash
    t.t_rec.r_short_write t.t_rec.r_torn_rename t.t_rec.r_lying_fsync
    t.t_rec.r_corrupt_byte t.t_truncated t.t_quarantined t.t_restarts;
  Printf.bprintf b
    ",\"service\":{\"epochs\":%d,\"healthy\":%d,\"degraded\":%d,\"carried\":%d,\"blackout\":%d,\"incidents\":%d,\"violations\":%d,\"ladder_activations\":%d}"
    (t.t_healthy + t.t_degraded + t.t_carried + t.t_blackout)
    t.t_healthy t.t_degraded t.t_carried t.t_blackout t.t_incidents
    t.t_violations t.t_ladder;
  Printf.bprintf b
    ",\"welfare\":{\"total_spend\":%s,\"mean_price\":%s,\"mean_delivered\":%s,\"mean_pob\":%s}"
    (fnum t.t_spend)
    (fnum (mean_of t t.t_price))
    (fnum (mean_of t t.t_delivered))
    (fnum (mean_of t t.t_pob));
  Buffer.add_string b ",\"cells\":[";
  List.iteri
    (fun i (name, ct) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"cell\":\"%s\",\"months\":%d,\"completed\":%d,\"kills\":%d,\"restarts\":%d,\"mean_delivered\":%s,\"mean_pob\":%s}"
        (Metrics.json_escape name) ct.t_months ct.t_completed ct.t_kills
        ct.t_restarts
        (fnum (mean_of ct ct.t_delivered))
        (fnum (mean_of ct ct.t_pob)))
    (cell_totals r);
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Wall-clock rollup — deliberately {e not} part of [report_to_json],
   whose bytes are pinned deterministic across [--jobs] and
   kill + resume.  One entry per matrix cell in matrix order, read back
   from the labeled [poc_fleet_cell_seconds] series (which
   [Metrics.to_prometheus] exports as the same rollup in exposition
   form). *)
let latency_rollup_json cfg =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"cells\":[";
  List.iteri
    (fun i cell ->
      if i > 0 then Buffer.add_char b ',';
      let name = Chaos_matrix.cell_name cell in
      let h = h_cell name in
      let n = Metrics.Histogram.count h in
      let q v = if n = 0 then "0" else fnum v in
      Printf.bprintf b
        "{\"cell\":\"%s\",\"months\":%d,\"sum_s\":%s,\"p50_s\":%s,\"p95_s\":%s,\"p99_s\":%s,\"max_s\":%s}"
        (Metrics.json_escape name) n
        (q (Metrics.Histogram.sum h))
        (q (Metrics.Histogram.p50 h))
        (q (Metrics.Histogram.p95 h))
        (q (Metrics.Histogram.p99 h))
        (q (Metrics.Histogram.max_observed h)))
    (Chaos_matrix.cells cfg.axes);
  Buffer.add_string b "]}\n";
  Buffer.contents b

let render r =
  let cfg = r.r_config in
  let t = fresh_totals () in
  List.iter (fun (_, o) -> add_outcome t o) r.outcomes;
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "fleet:    %d scenario-months, matrix %s (%d cells), %d topologies, %d \
     sites / %d BPs / %d epochs, seed %d\n"
    cfg.months
    (Chaos_matrix.spec_of_axes cfg.axes)
    (List.length (Chaos_matrix.cells cfg.axes))
    cfg.topologies cfg.sites cfg.bps cfg.epochs cfg.seed;
  Printf.bprintf b
    "survival: %d/%d completed, %d kills survived (crash %d, short_write %d, \
     torn_rename %d, lying_fsync %d, corrupt_byte %d), %d truncated / %d \
     quarantined segments, %d restarts\n"
    t.t_completed t.t_months t.t_kills t.t_rec.r_crash t.t_rec.r_short_write
    t.t_rec.r_torn_rename t.t_rec.r_lying_fsync t.t_rec.r_corrupt_byte
    t.t_truncated t.t_quarantined t.t_restarts;
  Printf.bprintf b
    "service:  %d epochs — %d healthy, %d degraded, %d carried, %d blackout; \
     %d incidents, %d violations\n"
    (t.t_healthy + t.t_degraded + t.t_carried + t.t_blackout)
    t.t_healthy t.t_degraded t.t_carried t.t_blackout t.t_incidents
    t.t_violations;
  Printf.bprintf b
    "welfare:  $%.0f total spend, mean price $%.2f per Gbps, mean delivered \
     %.4f, mean PoB %.4f\n"
    t.t_spend (mean_of t t.t_price)
    (mean_of t t.t_delivered)
    (mean_of t t.t_pob);
  let rows =
    List.map
      (fun (name, ct) ->
        [
          name;
          string_of_int ct.t_months;
          string_of_int ct.t_completed;
          string_of_int ct.t_kills;
          string_of_int ct.t_restarts;
          Table.fmt_float (mean_of ct ct.t_delivered);
          Table.fmt_float (mean_of ct ct.t_pob);
        ])
      (cell_totals r)
  in
  Buffer.add_string b
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right; Table.Right ]
       ~header:[ "cell"; "months"; "done"; "kills"; "restarts"; "delivered";
                 "PoB" ]
       rows);
  Buffer.contents b
