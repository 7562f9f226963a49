module Supervisor = Poc_resilience.Supervisor
module Journal = Poc_resilience.Journal
module Disk = Poc_resilience.Disk
module Fault = Poc_resilience.Fault
module Ladder = Poc_resilience.Ladder
module Planner = Poc_core.Planner
module Vcg = Poc_auction.Vcg
module Epochs = Poc_market.Epochs
module Metrics = Poc_obs.Metrics
module Clock = Poc_obs.Clock
module Flight = Poc_obs.Flight
module Black_box = Poc_resilience.Black_box

(* Service instruments.  Queue/backpressure gauges and counters carry
   the daemon's whole observable story: STATUS reads them, the
   Prometheus endpoint exports them, and the kill smoke asserts on
   them. *)
let g_queue =
  Metrics.gauge ~help:"Live updates waiting for the next epoch"
    Metrics.default "poc_daemon_queue_depth"

let g_high_water =
  Metrics.gauge ~help:"Admission queue bound" Metrics.default
    "poc_daemon_queue_high_water"

let g_next_epoch =
  Metrics.gauge ~help:"Next epoch the daemon will run (0 = horizon done)"
    Metrics.default "poc_daemon_next_epoch"

let c_requests =
  Metrics.counter ~help:"Control requests processed" Metrics.default
    "poc_daemon_requests_total"

let c_accepted =
  Metrics.counter ~help:"Updates admitted and durably logged"
    Metrics.default "poc_daemon_accepted_total"

let c_applied =
  Metrics.counter ~help:"Updates folded into an epoch" Metrics.default
    "poc_daemon_applied_total"

let c_shed =
  Metrics.counter ~help:"Queued updates shed to admit higher priority"
    Metrics.default "poc_daemon_shed_total"

let c_rejected =
  Metrics.counter ~help:"Updates rejected with BUSY backpressure"
    Metrics.default "poc_daemon_rejected_total"

let c_dup =
  Metrics.counter ~help:"Duplicate seqs suppressed" Metrics.default
    "poc_daemon_duplicates_total"

let c_retries =
  Metrics.counter ~help:"Transient disk errors retried with backoff"
    Metrics.default "poc_daemon_disk_retries_total"

let c_recoveries =
  Metrics.counter ~help:"Journal resumes when an engine opens"
    Metrics.default "poc_daemon_recoveries_total"

let h_request =
  Metrics.histogram ~help:"Control request latency (seconds)"
    Metrics.default "poc_daemon_request_seconds"

let h_recovery =
  Metrics.histogram ~help:"Time to recover from the journal (seconds)"
    Metrics.default "poc_daemon_recovery_seconds"

let h_settle =
  Metrics.histogram
    ~help:"Admission to settlement latency per applied update (seconds)"
    Metrics.default "poc_daemon_settle_seconds"

let g_flight_records =
  Metrics.gauge ~help:"Flight recorder records retained (0 when off)"
    Metrics.default "poc_daemon_flight_records"

let retrying_disk ?policy ?(ops = Disk.real_ops) () =
  Disk.with_ops
    (Disk.retrying ?policy
       ~on_retry:(fun ~op:_ ~attempt:_ ~delay:_ _ ->
         Metrics.Counter.inc c_retries)
       ops)

type t = {
  n_bps : int;
  store : string;
  market : Epochs.config;
  (* The updates waiting for the next epoch, in seq order: an EPOCH
     applies exactly what it drains.  A shed victim and a failed intake
     append leave the queue, and a resume re-queues the intake log's
     entries the restored state has not folded in, so a live run and a
     crash-resumed replay fold the same updates at the same epochs. *)
  admission : Supervisor.update Admission.t;
  disk : Disk.t;
  loop : Supervisor.loop;
  ilog : Intake.t;
  fb : Black_box.t option;
  (* Live admissions' Clock.now_us, keyed by seq: the settle histogram
     attributes admission→settlement latency only to updates admitted
     by this process (replayed intake entries have no admit instant). *)
  admit_us : (int, float) Hashtbl.t;
  mutable quiesced : bool;
}

let set_queue_gauges t =
  Metrics.Gauge.set g_queue (float_of_int (Admission.depth t.admission));
  Metrics.Gauge.set g_next_epoch
    (match Supervisor.next_epoch t.loop with
    | Some e -> float_of_int e
    | None -> 0.0);
  match t.fb with
  | None -> ()
  | Some b ->
    Metrics.Gauge.set g_flight_records
      (float_of_int (Flight.stored (Black_box.ring b)))

let create ?(snapshot_every = 4) ?segment_bytes ?disk ?pool ?flight
    ?(high_water = 64) ?(resume = false) ?(honor_crashes = false) ~store
    ~intake plan ~market ~schedule =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  let n_bps = Array.length plan.Planner.problem.Vcg.bids in
  let admission = Admission.create ~high_water () in
  Metrics.Gauge.set g_high_water (float_of_int high_water);
  let intake_retry ~attempt:_ ~delay:_ _ = Metrics.Counter.inc c_retries in
  let finish loop ilog =
    let t =
      {
        n_bps;
        store;
        market;
        admission;
        disk;
        loop;
        ilog;
        fb = flight;
        admit_us = Hashtbl.create 64;
        quiesced = false;
      }
    in
    set_queue_gauges t;
    Ok t
  in
  if resume then
    let t0 = Clock.now_us () in
    match
      Supervisor.open_resume ~honor_crashes ~journal:store ?flight
        ~disk ?pool plan ~market ~schedule
    with
    | Error _ as e -> e
    | Ok loop -> (
      match Intake.reopen ~disk ~on_retry:intake_retry intake with
      | Error msg ->
        ignore (Supervisor.close loop : Supervisor.report);
        Error (Supervisor.Refused msg)
      | Ok (ilog, records) ->
        let shed = Hashtbl.create 64 in
        List.iter
          (fun (r : Intake.record) ->
            Option.iter (fun s -> Hashtbl.replace shed s ()) r.displaces)
          records;
        let resume_next =
          match Supervisor.next_epoch loop with
          | Some e -> e
          | None -> Supervisor.horizon loop + 1
        in
        (* Entries the restored state has not folded in go back on the
           queue, for the epochs that will apply them; the rest restore
           the dedup floor and the counters. *)
        let applied = ref 0 in
        List.iter
          (fun ({ entry = e; _ } : Intake.record) ->
            Admission.set_last_seq admission e.seq;
            if not (Hashtbl.mem shed e.seq) then
              if e.apply_epoch >= resume_next then Admission.force admission e
              else incr applied)
          records;
        (* Counters are process-local; restore the run-cumulative
           accepted/shed/applied counts from the durable intake log so
           STATUS and the Prometheus endpoint survive the restart. *)
        Metrics.Counter.add c_accepted (float_of_int (List.length records));
        Metrics.Counter.add c_shed (float_of_int (Hashtbl.length shed));
        Metrics.Counter.add c_applied (float_of_int !applied);
        Metrics.Counter.inc c_recoveries;
        Metrics.Histogram.observe h_recovery
          ((Clock.now_us () -. t0) *. 1e-6);
        finish loop ilog)
  else
    let loop =
      Supervisor.open_run ~journal:store ?flight ~snapshot_every
        ?segment_bytes ~disk ?pool plan ~market ~schedule
    in
    finish loop (Intake.create ~disk ~on_retry:intake_retry intake)

let next_epoch t = Supervisor.next_epoch t.loop
let queue_depth t = Admission.depth t.admission
let checkpoint t = Supervisor.checkpoint t.loop

let banner t =
  Printf.sprintf
    "poc daemon: store=%s next=%s horizon=%d queue=%d/%d market[%s]" t.store
    (match next_epoch t with Some e -> string_of_int e | None -> "done")
    (Supervisor.horizon t.loop)
    (Admission.depth t.admission)
    (Admission.high_water t.admission)
    (Epochs.describe_config t.market)

(* The intake log closes even when the journal's close raises. *)
let close t =
  Fun.protect
    ~finally:(fun () -> Intake.close t.ilog)
    (fun () -> ignore (Supervisor.close t.loop : Supervisor.report))

(* --- request handlers ----------------------------------------------------- *)

let admit t ~seq ~priority payload =
  if t.quiesced then [ Printf.sprintf "ERR %d quiesced" seq ]
  else
    match Supervisor.next_epoch t.loop with
    | None -> [ Printf.sprintf "ERR %d horizon complete" seq ]
    | Some next -> (
      match Supervisor.validate_update ~n_bps:t.n_bps payload with
      | Error msg -> [ Printf.sprintf "ERR %d %s" seq msg ]
      | Ok () -> (
        let entry =
          { Admission.seq; apply_epoch = next; priority; payload }
        in
        match Admission.offer t.admission entry with
        | Admission.Duplicate ->
          Metrics.Counter.inc c_dup;
          [ Printf.sprintf "DUP %d" seq ]
        | Admission.Rejected { retry_after } ->
          Metrics.Counter.inc c_rejected;
          [ Printf.sprintf "BUSY %d retry_after=%.3f" seq retry_after ]
        | Admission.Admitted { shed } -> (
          let displaces =
            Option.map (fun (v : _ Admission.entry) -> v.seq) shed
          in
          match Intake.append t.ilog { entry; displaces } with
          | () ->
            Option.iter
              (fun (v : _ Admission.entry) ->
                Metrics.Counter.inc c_shed;
                Hashtbl.remove t.admit_us v.seq)
              shed;
            Metrics.Counter.inc c_accepted;
            Hashtbl.replace t.admit_us seq (Clock.now_us ());
            (match t.fb with
            | None -> ()
            | Some b ->
              Flight.emit (Black_box.ring b) ~epoch:next ~phase:"admission"
                (Flight.Event
                   {
                     name = "admit";
                     detail =
                       Printf.sprintf "seq=%d apply_epoch=%d" seq next;
                   });
              Black_box.flush b);
            set_queue_gauges t;
            let shed_part =
              match shed with
              | Some v -> Printf.sprintf " shed=%d" v.Admission.seq
              | None -> ""
            in
            [ Printf.sprintf "OK %d apply_epoch=%d queue=%d%s" seq next
                (Admission.depth t.admission)
                shed_part ]
          | exception Sys_error msg ->
            (* The admission is not durable: undo it entirely so the
               client can safely retry.  The victim (if any) was never
               durably shed either — put it back. *)
            Admission.drop t.admission ~seq;
            (match shed with
            | Some v -> Admission.force t.admission v
            | None -> ());
            set_queue_gauges t;
            [ Printf.sprintf
                "ERR %d not recorded (%s); retry with a fresh seq" seq msg ])))

(* Attribute admission→settlement latency to every update the epoch
   just folded in: the settle histogram feeds the Prometheus endpoint,
   and with a recorder attached each update leaves a metric record in
   the flight box. *)
let settle_applied t e entries =
  let settled = Clock.now_us () in
  List.iter
    (fun (en : _ Admission.entry) ->
      match Hashtbl.find_opt t.admit_us en.seq with
      | None -> () (* admitted before a restart: no live admit instant *)
      | Some admitted ->
        Hashtbl.remove t.admit_us en.seq;
        let dt = (settled -. admitted) *. 1e-6 in
        Metrics.Histogram.observe h_settle dt;
        (match t.fb with
        | None -> ()
        | Some b ->
          Flight.emit (Black_box.ring b) ~epoch:e ~phase:"settlement"
            (Flight.Metric { name = "admit_to_settle_s"; delta = dt })))
    entries;
  match t.fb with
  | None -> ()
  | Some b -> if entries <> [] then Black_box.flush b

(* Run up to [n] epochs, each applying what it drains from the queue.
   Whatever an epoch raises (an injected crash, a disk that keeps
   failing) escapes to the registry, which fails the run into its
   recovery cycle. *)
let run_epochs t n =
  let rec go k lines =
    match next_epoch t with
    | Some e when k > 0 ->
      let entries = Admission.drain t.admission ~epoch:e in
      let updates =
        List.map (fun (en : _ Admission.entry) -> en.payload) entries
      in
      let er = Supervisor.step ~updates t.loop in
      Metrics.Counter.add c_applied (float_of_int (List.length updates));
      settle_applied t e entries;
      set_queue_gauges t;
      go (k - 1)
        (Protocol.continuation
           (Printf.sprintf
              "epoch %d status=%s spend=%.2f delivered=%.3f applied=%d"
              er.Supervisor.epoch
              (Supervisor.status_to_string er.Supervisor.status)
              er.Supervisor.spend er.Supervisor.delivered_fraction
              (List.length updates))
        :: lines)
    | _ -> List.rev lines
  in
  let lines = go n [] in
  let next =
    match next_epoch t with Some e -> string_of_int e | None -> "done"
  in
  lines @ [ Printf.sprintf "OK epochs=%d next=%s" (List.length lines) next ]

let status_line t =
  let next =
    match next_epoch t with Some e -> string_of_int e | None -> "done"
  in
  Printf.sprintf
    "STATUS ok next=%s horizon=%d queue=%d/%d last_seq=%d accepted=%.0f \
     applied=%.0f shed=%.0f rejected=%.0f dup=%.0f recoveries=%.0f \
     disk_retries=%.0f flight=%s quiesced=%b market[%s]"
    next
    (Supervisor.horizon t.loop)
    (Admission.depth t.admission)
    (Admission.high_water t.admission)
    (Admission.last_seq t.admission)
    (Metrics.Counter.value c_accepted)
    (Metrics.Counter.value c_applied)
    (Metrics.Counter.value c_shed)
    (Metrics.Counter.value c_rejected)
    (Metrics.Counter.value c_dup)
    (Metrics.Counter.value c_recoveries)
    (Metrics.Counter.value c_retries)
    (match t.fb with
    | Some b ->
      Printf.sprintf "on:%d" (Flight.stored (Black_box.ring b))
    | None -> "off")
    t.quiesced
    (Epochs.describe_config t.market)

let dispatch t = function
  | Protocol.Bid { seq; bp; factor; priority } ->
    admit t ~seq ~priority (Supervisor.Scale_bid { bp; factor })
  | Protocol.Matrix { seq; factor; priority } ->
    admit t ~seq ~priority (Supervisor.Scale_demand { factor })
  | Protocol.Epoch n -> run_epochs t n
  | Protocol.Status -> [ status_line t ]
  | Protocol.Scrub -> (
    match Journal.scrub ~disk:t.disk ~dry_run:true t.store with
    | Ok report ->
      let json_lines =
        String.split_on_char '\n' (Journal.scrub_to_json report)
        |> List.filter (fun l -> l <> "")
        |> List.map Protocol.continuation
      in
      json_lines
      @ [ Printf.sprintf "OK scrub recovered=%b" report.Journal.recovered ]
    | Error msg -> [ "ERR scrub " ^ msg ])
  | Protocol.Quiesce ->
    t.quiesced <- true;
    [ Printf.sprintf "OK quiesced queue=%d" (Admission.depth t.admission) ]
  | Protocol.Metrics_dump | Protocol.Shutdown ->
    invalid_arg "Engine.handle: METRICS and SHUTDOWN are daemon-wide verbs"

let handle t req =
  let t0 = Clock.now_us () in
  Metrics.Counter.inc c_requests;
  Fun.protect
    ~finally:(fun () ->
      Metrics.Histogram.observe h_request ((Clock.now_us () -. t0) *. 1e-6))
    (fun () -> dispatch t req)
