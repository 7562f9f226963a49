module Prng = Poc_util.Prng
module Pool = Poc_util.Pool
module Vcg = Poc_auction.Vcg
module Matrix = Poc_traffic.Matrix
module Router = Poc_mcf.Router
module Planner = Poc_core.Planner
module Settlement = Poc_core.Settlement
module Epochs = Poc_market.Epochs
module Wan = Poc_topology.Wan
module Trace = Poc_obs.Trace
module Metrics = Poc_obs.Metrics
module Flight = Poc_obs.Flight
module Phase = Poc_obs.Phase

let h_epoch =
  Metrics.histogram ~help:"Whole-epoch wall clock (seconds)" Metrics.default
    "poc_epoch_seconds"

let h_drift =
  Metrics.histogram ~help:"Market drift + bid construction phase (seconds)"
    Metrics.default "poc_phase_drift_seconds"

let h_auction =
  Metrics.histogram ~help:"Auction phase wall clock (seconds)" Metrics.default
    "poc_phase_auction_seconds"

let h_routing =
  Metrics.histogram ~help:"Delivered-fraction routing phase (seconds)"
    Metrics.default "poc_phase_routing_seconds"

let h_settlement =
  Metrics.histogram ~help:"Settlement + invariant checks phase (seconds)"
    Metrics.default "poc_phase_settlement_seconds"

let h_journal =
  Metrics.histogram ~help:"Journal append + flush phase (seconds)"
    Metrics.default "poc_phase_journal_seconds"

let m_epochs =
  Metrics.counter ~help:"Supervised epochs completed" Metrics.default
    "poc_supervisor_epochs_total"

let m_ladder =
  Metrics.counter ~help:"Epochs that left Healthy (ladder, carry, blackout)"
    Metrics.default "poc_ladder_engagements_total"

let m_violations =
  Metrics.counter ~help:"Cross-layer invariant violations" Metrics.default
    "poc_invariant_violations_total"

let m_crashes =
  Metrics.counter ~help:"Injected process crashes honored" Metrics.default
    "poc_injected_crashes_total"

type status = Journal.status =
  | Healthy
  | Degraded of Ladder.step
  | Carried
  | Blackout

type epoch_report = Journal.epoch_report = {
  epoch : int;
  status : status;
  spend : float;
  price_per_gbps : float;
  delivered_fraction : float;
  selected_links : int;
  recalled_links : int;
  active_faults : int;
  ladder_attempts : int;
  ledger_conservation : float option;
  posted_price : float option;
}

type incident = {
  start_epoch : int;
  trigger : string;
  response : status;
  attempts : int;
  recovery_epoch : int option;
  spend_penalty : float;
}

type violation = Journal.violation = {
  epoch : int;
  invariant : string;
  detail : string;
}

type report = {
  epochs : epoch_report list;
  incidents : incident list;
  violations : violation list;
  ladder_activations : int;
  final_plan : Planner.plan option;
}

exception Injected_crash of { epoch : int; phase : Fault.phase }

let status_to_string = function
  | Healthy -> "healthy"
  | Degraded step -> Printf.sprintf "degraded[%s]" (Ladder.step_to_string step)
  | Carried -> "carried_forward"
  | Blackout -> "blackout"

(* Carry-forward state between epochs: exactly what a snapshot record
   persists, so checkpoint/resume is a matter of copying this out and
   back in.  [market] is the market model's drifting state, advanced
   by [Epochs.advance]. *)
type state = {
  market : Epochs.state;
  down : (int, unit) Hashtbl.t; (* heals on Link_up *)
  gone : (int, unit) Hashtbl.t; (* never heals *)
  mutable surge : float;
  mutable demand_scale : float; (* cumulative growth, journaled *)
  mutable last_good : Vcg.selection option;
}

let initial_state (plan : Planner.plan) (market : Epochs.config) =
  {
    market = Epochs.initial_state plan market;
    down = Hashtbl.create 64;
    gone = Hashtbl.create 64;
    surge = 1.0;
    demand_scale = 1.0;
    last_good = Some plan.Planner.outcome.Vcg.selection;
  }

let state_of_snapshot (plan : Planner.plan) (market : Epochs.config)
    (s : Journal.snapshot) =
  let down = Hashtbl.create 64 and gone = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace down id ()) s.Journal.down;
  List.iter (fun id -> Hashtbl.replace gone id ()) s.Journal.gone;
  {
    market =
      Epochs.restore_state plan market ~epoch:s.Journal.at_epoch
        ~prng_state:s.Journal.prng_state ~cost_level:s.Journal.cost_level;
    down;
    gone;
    surge = s.Journal.surge;
    demand_scale = s.Journal.demand_scale;
    last_good =
      Option.map
        (fun (ids, cost) -> { Vcg.selected = ids; cost })
        s.Journal.last_good;
  }

let snapshot_of_state ~epoch st : Journal.snapshot =
  let ids tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  {
    Journal.at_epoch = epoch;
    prng_state = Prng.state st.market.Epochs.rng;
    cost_level = Array.copy st.market.Epochs.cost_level;
    down = ids st.down;
    gone = ids st.gone;
    surge = st.surge;
    demand_scale = st.demand_scale;
    last_good =
      Option.map
        (fun (sel : Vcg.selection) -> (sel.Vcg.selected, sel.Vcg.cost))
        st.last_good;
  }

let phase_rank = function
  | Fault.Pre_auction -> 0
  | Fault.Pre_settle -> 1
  | Fault.Post_settle -> 2

(* Earliest process-killing point of the epoch, with the disk damage
   (if any) it applies on the way down. *)
let first_crash events =
  List.filter_map
    (function
      | Fault.Crash_point p -> Some (p, None)
      | Fault.Disk_point (p, f) -> Some (p, Some f)
      | _ -> None)
    events
  |> List.stable_sort (fun (a, _) (b, _) -> compare (phase_rank a) (phase_rank b))
  |> function
  | [] -> None
  | x :: _ -> Some x

let incidents_of ~schedule epochs =
  (* One incident per fault epoch absorbed while healthy, one per
     maximal degraded span. *)
  let out = ref [] in
  let open_inc = ref None in
  let baseline = ref None in
  let delta spend = match !baseline with Some b -> spend -. b | None -> 0.0 in
  List.iter
    (fun (er : epoch_report) ->
      let faults = Fault.describe schedule er.epoch in
      let has_faults = faults <> "-" in
      match (!open_inc, er.status) with
      | None, Healthy ->
        if has_faults then
          out :=
            {
              start_epoch = er.epoch;
              trigger = faults;
              response = Healthy;
              attempts = er.ladder_attempts;
              recovery_epoch = Some er.epoch;
              spend_penalty = delta er.spend;
            }
            :: !out;
        baseline := Some er.spend
      | None, status ->
        open_inc :=
          Some
            {
              start_epoch = er.epoch;
              trigger = (if has_faults then faults else "market stress");
              response = status;
              attempts = er.ladder_attempts;
              recovery_epoch = None;
              spend_penalty = delta er.spend;
            }
      | Some inc, Healthy ->
        out := { inc with recovery_epoch = Some er.epoch } :: !out;
        open_inc := None;
        baseline := Some er.spend
      | Some inc, _ ->
        open_inc :=
          Some { inc with spend_penalty = inc.spend_penalty +. delta er.spend })
    epochs;
  (match !open_inc with Some inc -> out := inc :: !out | None -> ());
  List.rev !out

let epochs_to_recovery incident =
  Option.map (fun r -> r - incident.start_epoch) incident.recovery_epoch

let render_incidents report =
  let line i =
    Printf.sprintf
      "incident start=%d trigger=%s response=%s attempts=%d recovery=%s \
       epochs_to_recovery=%s spend_penalty=%+.2f"
      i.start_epoch i.trigger
      (status_to_string i.response)
      i.attempts
      (match i.recovery_epoch with Some e -> string_of_int e | None -> "never")
      (match epochs_to_recovery i with
      | Some n -> string_of_int n
      | None -> "never")
      i.spend_penalty
  in
  match report.incidents with
  | [] -> "no incidents\n"
  | incidents -> String.concat "\n" (List.map line incidents) ^ "\n"

let render_epochs report =
  let header =
    Printf.sprintf "%-6s %-28s %12s %8s %10s %5s %7s %8s" "epoch" "status"
      "spend $" "$/Gbps" "delivered" "|SL|" "faults" "attempts"
  in
  let line (er : epoch_report) =
    Printf.sprintf "%-6d %-28s %12.0f %8.2f %9.1f%% %5d %7d %8d" er.epoch
      (status_to_string er.status)
      er.spend er.price_per_gbps
      (100.0 *. er.delivered_fraction)
      er.selected_links er.active_faults er.ladder_attempts
  in
  String.concat "\n" (header :: List.map line report.epochs) ^ "\n"

(* A live-arriving market mutation, applied deterministically at the
   top of the epoch it lands on (before scheduled faults and drift).
   The daemon's admission queue feeds these in; durability is the
   caller's problem — the supervisor journal never records them, so a
   resumed run must re-apply the same updates at the same epochs (the
   daemon's intake log exists for exactly that). *)
type update =
  | Scale_bid of { bp : int; factor : float }
  | Scale_demand of { factor : float }

let validate_update ~n_bps = function
  | Scale_bid { bp; factor } ->
    if bp < 0 || bp >= n_bps then
      Error (Printf.sprintf "bid update: bp %d out of range [0,%d)" bp n_bps)
    else if not (Float.is_finite factor) || factor <= 0.0 then
      Error (Printf.sprintf "bid update: factor %g must be finite positive"
               factor)
    else Ok ()
  | Scale_demand { factor } ->
    if not (Float.is_finite factor) || factor <= 0.0 then
      Error (Printf.sprintf "demand update: factor %g must be finite positive"
               factor)
    else Ok ()

let apply_update st ~n_bps u =
  (match validate_update ~n_bps u with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Supervisor: " ^ msg));
  match u with
  | Scale_bid { bp; factor } ->
    let level = st.market.Epochs.cost_level in
    level.(bp) <- level.(bp) *. factor
  | Scale_demand { factor } -> st.surge <- st.surge *. factor

(* An open supervised run, steppable one epoch at a time.  [run] and
   [resume] below drive one of these end to end; the daemon keeps one
   open across client requests instead.  [l_reports]/[l_violations]
   accumulate in reverse chronological order and include any prefix
   recovered from a journal on resume.  [l_checkpoint] is the epoch of
   the newest checkpoint (snapshot or rotation carry) written or
   restored, 0 before the first: a resume restarts after it. *)
type loop = {
  l_journal : Journal.t option;
  l_flight : Black_box.t option;
  l_snapshot_every : int;
  l_disk : Disk.t;
  l_honor_crashes : bool;
  l_state : state;
  l_pool : Pool.t option;
  l_plan : Planner.plan;
  l_market : Epochs.config;
  l_schedule : Fault.schedule;
  mutable l_next : int;
  mutable l_checkpoint : int;
  mutable l_reports : epoch_report list;
  mutable l_violations : violation list;
  mutable l_final_plan : Planner.plan option;
  mutable l_closed : bool;
}

let next_epoch loop =
  if loop.l_closed || loop.l_next > loop.l_market.Epochs.epochs then None
  else Some loop.l_next

let horizon loop = loop.l_market.Epochs.epochs

let checkpoint loop = loop.l_checkpoint

let progress loop = List.rev loop.l_reports

let flight loop = loop.l_flight

(* Run one epoch of the supervised loop inside the epoch span [ep_sp]:
   the schedule's fault events, then the full market epoch (drift,
   auction or ladder, routing, settlement, invariants), journaling and
   rotating exactly as the monolithic loop did.  Everything it records
   goes through [Phase], so the trace and the flight box name each
   occurrence once and alike. *)
let run_epoch ~flight ~ep_sp loop =
  let st = loop.l_state in
  let plan = loop.l_plan in
  let market = loop.l_market in
  let schedule = loop.l_schedule in
  let journal = loop.l_journal in
  let pool = loop.l_pool in
  let base_problem = plan.Planner.problem in
  let epoch = loop.l_next in
  let phase h name body = Phase.run ~flight ~epoch h name body in
  let incident ~phase counter name detail =
    Phase.incident ~flight ~epoch ~phase counter name detail
  in
  let crash phase fault =
    incident ~phase:(Fault.phase_to_string phase) m_crashes "crash"
      (match fault with
      | Some f -> "disk_fault:" ^ Disk.fault_to_string f
      | None -> "injected");
    (* The trace sink flushes in place on the way down, the crashed
       epoch's spans closed first: a crash run keeps its complete trace
       instead of whatever at_exit salvages. *)
    Trace.finish ep_sp;
    Trace.flush_sink ();
    (match journal with Some t -> Journal.close t | None -> ());
    loop.l_closed <- true;
    (* The disk damage lands after the handles close and before the
       raise, so the next observer of the files is the resume/scrub
       path — just as after a real power loss.  The flight box rides
       its own Disk.t, so the damage never lands on it. *)
    (match fault with Some f -> Disk.power_cut loop.l_disk f | None -> ());
    raise (Injected_crash { epoch; phase })
  in
  begin
    if Trace.enabled () then Trace.add_attr ep_sp "epoch" (Trace.Int epoch);
    (* Scheduled faults take effect before the epoch's auction. *)
    let events = Fault.at schedule epoch in
    List.iter
      (fun ev ->
        Phase.event ~flight ~epoch ~phase:"faults" "fault"
          (Fault.event_to_string ev);
        match ev with
        | Fault.Link_down id -> Hashtbl.replace st.down id ()
        | Fault.Link_up id -> Hashtbl.remove st.down id
        | Fault.Bp_exit bp ->
          List.iter
            (fun id -> Hashtbl.replace st.gone id ())
            (Wan.bp_link_ids plan.Planner.wan bp)
        | Fault.Withdraw ids ->
          List.iter (fun id -> Hashtbl.replace st.gone id ()) ids
        | Fault.Surge f -> st.surge <- st.surge *. f
        | Fault.Surge_over f -> st.surge <- st.surge /. f
        | Fault.Crash_point _ | Fault.Disk_point _ -> ())
      events;
    let crash_info =
      if loop.l_honor_crashes then first_crash events else None
    in
    (match crash_info with
    | Some (Fault.Pre_auction, fault) -> crash Fault.Pre_auction fault
    | _ -> ());
    (* Market drift through the market model; the surge and the
       down/gone bans are this loop's own. *)
    let recalled, epoch_matrix, problem =
      phase h_drift "drift" (fun _ ->
          let bids, recalled = Epochs.advance market plan st.market in
          st.demand_scale <- st.demand_scale *. market.Epochs.demand_growth;
          let grown = st.market.Epochs.matrix in
          let epoch_matrix =
            if st.surge = 1.0 then grown else Matrix.scale grown st.surge
          in
          ( recalled,
            epoch_matrix,
            {
              base_problem with
              Vcg.bids;
              demands = Matrix.undirected_pair_demands epoch_matrix;
            } ))
    in
    let demands = problem.Vcg.demands in
    let volume = Matrix.total epoch_matrix in
    let banned id =
      Hashtbl.mem recalled id || Hashtbl.mem st.down id
      || Hashtbl.mem st.gone id
    in
    let select ?banned:(extra = fun _ -> false) ?cache p =
      Vcg.select_greedy ~banned:(fun id -> banned id || extra id) ?cache ?pool p
    in
    (* Auction; on failure, the ladder; then carry-forward; then blackout. *)
    let status, outcome_opt, ladder_attempts =
      phase h_auction "auction" (fun _ ->
          let ((status, _, ladder_attempts) as decision) =
            match Vcg.run ~select ?pool problem with
            | Some outcome -> (Healthy, Some outcome, 0)
            | None -> (
              let rung_budget =
                List.length (Ladder.rungs ~rule:problem.Vcg.rule)
              in
              match Ladder.engage ~banned ?pool problem with
              | Some e ->
                ( Degraded e.Ladder.step,
                  Some e.Ladder.outcome,
                  e.Ladder.attempts )
              | None -> (
                match st.last_good with
                | None -> (Blackout, None, rung_budget)
                | Some sel -> (
                  let surviving =
                    List.filter (fun id -> not (banned id)) sel.Vcg.selected
                  in
                  match Ladder.pay_as_bid problem surviving with
                  | Some outcome -> (Carried, Some outcome, rung_budget)
                  | None -> (Blackout, None, rung_budget))))
          in
          (* Any response but Healthy is one incident, named after the
             response. *)
          let respond name step =
            incident ~phase:"auction" m_ladder name
              (String.concat " "
                 (step @ [ Printf.sprintf "attempts=%d" ladder_attempts ]))
          in
          (match status with
          | Healthy -> ()
          | Degraded step -> respond "ladder" [ Ladder.step_to_string step ]
          | Carried -> respond "carry_forward" []
          | Blackout -> respond "blackout" []);
          decision)
    in
    (match crash_info with
    | Some (Fault.Pre_settle, fault) ->
      (* The auction decided but nothing settled: what hits the disk
         is a record cut off mid-write. *)
      (match journal with Some t -> Journal.append_torn t ~epoch | None -> ());
      crash Fault.Pre_settle fault
    | _ -> ());
    (match status with
    | Healthy -> (
      match outcome_opt with
      | Some o -> st.last_good <- Some o.Vcg.selection
      | None -> ())
    | Degraded _ | Carried | Blackout -> ());
    (* Delivered fraction: route the full (unrelaxed) demand over the
       surviving selected links. *)
    let routing_opt, delivered =
      phase h_routing "routing" (fun sp ->
          let ((_, delivered) as r) =
            match outcome_opt with
            | None -> (None, 0.0)
            | Some o ->
              let in_sel = Hashtbl.create 64 in
              List.iter
                (fun id -> Hashtbl.replace in_sel id ())
                o.Vcg.selection.Vcg.selected;
              let enabled id = Hashtbl.mem in_sel id && not (banned id) in
              let r = Router.route ~enabled problem.Vcg.graph ~demands in
              let total =
                List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands
              in
              ( Some r,
                if total <= 0.0 then 1.0 else Router.total_routed r /. total )
          in
          if Trace.enabled () then
            Trace.add_attr sp "delivered_fraction" (Trace.Float delivered);
          r)
    in
    let spend =
      match outcome_opt with Some o -> o.Vcg.total_payment | None -> 0.0
    in
    let price =
      match outcome_opt with
      | Some _ when volume > 0.0 -> spend /. volume
      | Some _ | None -> 0.0
    in
    (* Cross-layer invariants, checked every epoch. *)
    let conservation, posted, epoch_violations =
      phase h_settlement "settlement" (fun _ ->
          let epoch_violations = ref [] in
          let violate invariant detail =
            incident ~phase:"settlement" m_violations "violation"
              (invariant ^ ": " ^ detail);
            epoch_violations :=
              { epoch; invariant; detail } :: !epoch_violations
          in
          let conservation, posted =
            match (outcome_opt, routing_opt) with
            | Some outcome, Some routing ->
              let pseudo =
                {
                  plan with
                  Planner.matrix = epoch_matrix;
                  problem;
                  outcome;
                  routing;
                }
              in
              let ledger = Settlement.of_plan pseudo () in
              loop.l_final_plan <- Some pseudo;
              (match Settlement.check ledger with
              | Ok () -> ()
              | Error msg -> violate "settlement-ledger" msg);
              ( Some (Settlement.conservation ledger),
                Some ledger.Settlement.usage_price )
            | _, _ -> (None, None)
          in
          if not (Float.is_finite price) then
            violate "epoch-price-finite" (Printf.sprintf "price %f" price);
          (match routing_opt with
          | Some r
            when Router.total_routed r > r.Router.enabled_capacity +. 1e-6 ->
            violate "delivered-within-capacity"
              (Printf.sprintf "routed %.3f over capacity %.3f"
                 (Router.total_routed r) r.Router.enabled_capacity)
          | Some _ | None -> ());
          let epoch_violations = List.rev !epoch_violations in
          List.iter
            (fun v -> loop.l_violations <- v :: loop.l_violations)
            epoch_violations;
          (conservation, posted, epoch_violations))
    in
    let er =
      {
        epoch;
        status;
        spend;
        price_per_gbps = price;
        delivered_fraction = delivered;
        selected_links =
          (match outcome_opt with
          | Some o -> List.length o.Vcg.selection.Vcg.selected
          | None -> 0);
        recalled_links = Hashtbl.length recalled;
        active_faults = Hashtbl.length st.down + Hashtbl.length st.gone;
        ladder_attempts;
        ledger_conservation = conservation;
        posted_price = posted;
      }
    in
    loop.l_reports <- er :: loop.l_reports;
    (match journal with
    | Some t ->
      phase h_journal "journal" (fun _ ->
          Journal.append_epoch t
            {
              Journal.report = er;
              events;
              selected =
                (match outcome_opt with
                | Some o -> o.Vcg.selection.Vcg.selected
                | None -> []);
              violations = epoch_violations;
            };
          if
            epoch mod loop.l_snapshot_every = 0 && epoch < market.Epochs.epochs
          then begin
            Journal.append_snapshot t (snapshot_of_state ~epoch st);
            loop.l_checkpoint <- epoch
          end;
          (* Rotation is driven here, not inside the journal, because only
             the supervisor can checkpoint the live market state for the
             new segment's carry.  The trigger depends only on bytes
             appended so far, so an uninterrupted run and a resumed one
             rotate at the same epochs with the same carries. *)
          if Journal.wants_rotation t && epoch < market.Epochs.epochs then begin
            Journal.rotate t
              {
                Journal.at = snapshot_of_state ~epoch st;
                carry_reports = List.rev loop.l_reports;
                carry_violations = List.rev loop.l_violations;
              };
            loop.l_checkpoint <- epoch
          end)
    | None -> ());
    if Trace.enabled () then begin
      Trace.add_attr ep_sp "status" (Trace.Str (status_to_string status));
      Trace.add_attr ep_sp "spend" (Trace.Float spend)
    end;
    Metrics.Counter.inc m_epochs;
    (* A post-settle crash is the epoch's last act: the epoch's journal
       record is durable, and its close never comes. *)
    (match crash_info with
    | Some (Fault.Post_settle, fault) -> crash Fault.Post_settle fault
    | _ -> ());
    loop.l_next <- epoch + 1;
    er
  end

(* The epoch is a phase: [Phase.run] closes its span, with every span
   opened inside it, however the epoch ends (the fleet's kill chain and
   the daemon's registry catch an epoch's exception and go on in the
   same process).  Live updates land before it opens; the
   epoch-boundary flush makes the epoch's close durable before the next
   epoch opens. *)
let step ?(updates = []) loop =
  if loop.l_closed then invalid_arg "Supervisor.step: loop is closed";
  if loop.l_next > loop.l_market.Epochs.epochs then
    invalid_arg "Supervisor.step: horizon complete";
  let n_bps = Array.length loop.l_plan.Planner.problem.Vcg.bids in
  List.iter (apply_update loop.l_state ~n_bps) updates;
  let flight =
    Option.map
      (fun b -> (Black_box.ring b, fun () -> Black_box.flush b))
      loop.l_flight
  in
  let er =
    Phase.run ~flight ~epoch:loop.l_next h_epoch "epoch" (fun ep_sp ->
        run_epoch ~flight ~ep_sp loop)
  in
  Option.iter Black_box.flush loop.l_flight;
  er

let assemble_report loop =
  let epochs = List.rev loop.l_reports in
  let incidents = incidents_of ~schedule:loop.l_schedule epochs in
  {
    epochs;
    incidents;
    violations = List.rev loop.l_violations;
    ladder_activations =
      List.length
        (List.filter (fun (er : epoch_report) -> er.status <> Healthy) epochs);
    final_plan = loop.l_final_plan;
  }

(* The one close.  The journal gets its completion record only once
   the horizon is done; closed before it, the store stays resumable (a
   later [serve --resume] picks the run back up).  A loop an injected
   crash already closed keeps its journal as the crash left it. *)
let close loop =
  let report = assemble_report loop in
  (match loop.l_journal with
  | Some t when not loop.l_closed ->
    if loop.l_next > horizon loop then
      Journal.append_complete t ~incidents:(render_incidents report);
    Journal.close t
  | Some _ | None -> ());
  Option.iter Black_box.close loop.l_flight;
  loop.l_closed <- true;
  report

let drive loop =
  let rec go () =
    match next_epoch loop with
    | None -> close loop
    | Some _ ->
      ignore (step loop);
      go ()
  in
  go ()

let validate_or_raise market =
  match Epochs.validate_config market with
  | Ok () -> ()
  | Error msg -> invalid_arg msg

(* The loop is the one owner of its flight box: the box lives in the
   journal store, opened once the journal has claimed the directory,
   and rides a disk of its own, so a power cut never lands on it. *)
let open_run ?journal ?(flight = false) ?(snapshot_every = 4) ?segment_bytes
    ?disk ?pool (plan : Planner.plan) ~market ~schedule =
  validate_or_raise market;
  if snapshot_every < 1 then
    invalid_arg "Supervisor: snapshot_every must be >= 1";
  if flight && journal = None then
    invalid_arg "Supervisor: a flight box needs a journal store";
  let disk = match disk with Some d -> d | None -> Disk.real () in
  let j =
    Option.map
      (fun path ->
        Journal.create ~disk ?segment_bytes path
          {
            Journal.version = Journal.version;
            market_seed = market.Epochs.seed;
            market_epochs = market.Epochs.epochs;
            n_bps = Array.length plan.Planner.problem.Vcg.bids;
            snapshot_every;
            digest = Journal.digest ~market schedule;
          })
      journal
  in
  let box =
    match journal with
    | Some path when flight -> Some (Black_box.create (Black_box.file_in path))
    | Some _ | None -> None
  in
  {
    l_journal = j;
    l_flight = box;
    l_snapshot_every = snapshot_every;
    l_disk = disk;
    l_honor_crashes = true;
    l_state = initial_state plan market;
    l_pool = pool;
    l_plan = plan;
    l_market = market;
    l_schedule = schedule;
    l_next = 1;
    l_checkpoint = 0;
    l_reports = [];
    l_violations = [];
    l_final_plan = None;
    l_closed = false;
  }

let run ?journal ?flight ?snapshot_every ?segment_bytes ?disk ?pool
    (plan : Planner.plan) ~market ~schedule =
  drive
    (open_run ?journal ?flight ?snapshot_every ?segment_bytes ?disk ?pool plan
       ~market ~schedule)

type refusal = Completed | Refused of string

let refusal_to_string = function
  | Completed -> "journal records a completed run; nothing to resume"
  | Refused msg -> msg

let open_resume ?(honor_crashes = false) ~journal:path ?(flight = false) ?disk
    ?pool (plan : Planner.plan) ~market ~schedule =
  validate_or_raise market;
  let disk = match disk with Some d -> d | None -> Disk.real () in
  match Journal.replay ~disk path with
  | Error msg -> Error (Refused msg)
  | Ok r ->
    let h = r.Journal.header in
    let n_bps = Array.length plan.Planner.problem.Vcg.bids in
    let mismatches =
      List.filter_map
        (fun (name, journal_has, run_has) ->
          if journal_has <> run_has then
            Some
              (Printf.sprintf "%s: journal has %d, this run has %d" name
                 journal_has run_has)
          else None)
        [
          ("market seed", h.Journal.market_seed, market.Epochs.seed);
          ("market epochs", h.Journal.market_epochs, market.Epochs.epochs);
          ("bandwidth providers", h.Journal.n_bps, n_bps);
        ]
      @
      if Int64.equal h.Journal.digest (Journal.digest ~market schedule)
      then []
      else
        [ "config digest differs (market, ladder or fault schedule changed)" ]
    in
    if mismatches <> [] then
      Error
        (Refused
           ("journal does not match this run: " ^ String.concat "; " mismatches))
    else if r.Journal.complete <> None then Error Completed
    else
      let state, first_epoch, prefix_records =
        match r.Journal.snapshot with
        | Some s ->
          ( state_of_snapshot plan market s,
            s.Journal.at_epoch + 1,
            List.filter
              (fun (rec_ : Journal.epoch_record) ->
                rec_.Journal.report.epoch <= s.Journal.at_epoch)
              r.Journal.records )
        | None -> (initial_state plan market, 1, [])
      in
      let t = Journal.reopen ~disk path r in
      let prefix =
        r.Journal.prefix_reports
        @ List.map
            (fun (rec_ : Journal.epoch_record) -> rec_.Journal.report)
            prefix_records
      in
      let prefix_violations =
        r.Journal.prefix_violations
        @ List.concat_map
            (fun (rec_ : Journal.epoch_record) -> rec_.Journal.violations)
            prefix_records
      in
      (* A rotation torn by the power cut: the snapshot that triggered
         it is the segment's last record and the segment is back over
         budget (the new segment's manifest rename never landed, and
         reopen deleted the orphan).  Redo the rotation here with the
         same carry the interrupted run used, so the rebuilt store is
         byte-identical to an uninterrupted one.  The last-record guard
         keeps this from firing when the over-budget bytes are epoch
         records after the snapshot — those re-rotate naturally when
         their epochs re-run. *)
      let ends_with_snapshot_record (s : Journal.snapshot) =
        (* True only when the segment's own records run right up to the
           snapshot that closes it — the torn-rotation shape.  A fresh
           post-rotation segment also ends at its (carry) snapshot but
           holds no records, and must not rotate again. *)
        (not r.Journal.torn_tail)
        && r.Journal.resume_offset = r.Journal.valid_bytes
        && (match List.rev r.Journal.records with
           | last :: _ -> last.Journal.report.epoch = s.Journal.at_epoch
           | [] -> false)
      in
      (match r.Journal.snapshot with
      | Some s
        when Journal.wants_rotation t
             && ends_with_snapshot_record s
             && s.Journal.at_epoch < market.Epochs.epochs ->
        Journal.rotate t
          {
            Journal.at = s;
            carry_reports = prefix;
            carry_violations = prefix_violations;
          }
      | _ -> ());
      (* An accepted resume starts a new attempt: one that reopens a box
         already holding records marks where its own records begin. *)
      let box =
        if not flight then None
        else
          let b = Black_box.reopen (Black_box.file_in path) in
          if Flight.stored (Black_box.ring b) > 0 then Black_box.mark_resume b;
          Some b
      in
      Ok
        {
          l_journal = Some t;
          l_flight = box;
          l_snapshot_every = h.Journal.snapshot_every;
          l_disk = disk;
          l_honor_crashes = honor_crashes;
          l_state = state;
          l_pool = pool;
          l_plan = plan;
          l_market = market;
          l_schedule = schedule;
          l_next = first_epoch;
          l_checkpoint = first_epoch - 1;
          l_reports = List.rev prefix;
          l_violations = List.rev prefix_violations;
          l_final_plan = None;
          l_closed = false;
        }

let resume ?honor_crashes ~journal ?flight ?disk ?pool (plan : Planner.plan)
    ~market ~schedule =
  open_resume ?honor_crashes ~journal ?flight ?disk ?pool plan ~market
    ~schedule
  |> Result.map drive
  |> Result.map_error refusal_to_string
