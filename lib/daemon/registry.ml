module Supervisor = Poc_resilience.Supervisor
module Journal = Poc_resilience.Journal
module Recovery = Poc_resilience.Recovery
module Disk = Poc_resilience.Disk
module Fault = Poc_resilience.Fault
module Black_box = Poc_resilience.Black_box
module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Metrics = Poc_obs.Metrics
module Clock = Poc_obs.Clock
module Codec = Poc_util.Codec
module Log = Poc_resilience.Log

type run_state =
  | Starting
  | Serving
  | Failing of { attempts : int; retry_at_us : float; cause : string }
  | Quarantined of { cause : string }
  | Closed

let state_name = function
  | Starting -> "starting"
  | Serving -> "serving"
  | Failing _ -> "failing"
  | Quarantined _ -> "quarantined"
  | Closed -> "closed"

let state_names = [ "starting"; "serving"; "failing"; "quarantined"; "closed" ]

type action = Continue | Stop

type run_info = {
  id : int;
  state : run_state;
  next_epoch : int option;
  horizon : int;
  queue : int;
}

type slot = {
  sid : int;
  store : string;
  intake : string;
  m : Epochs.config;
  recovery : Recovery.t;  (* failures so far, kill specs not yet fired *)
  mutable engine : Engine.t option;
  mutable state : run_state;
}

type t = {
  root : string;
  plan : Planner.plan;
  base_market : Epochs.config;
  snapshot_every : int;
  segment_bytes : int;
  pool : Poc_util.Pool.t option;
  flight : bool;
  high_water : int;
  attempt_cap : int;
  fault_seed : int;
  fault_run : int;
  fault_specs : Fault.spec list;
  disk_for : run:int -> Disk.t;
  max_runs : int;
  slots : (int, slot) Hashtbl.t;
  manifest : Log.t;  (* root/RUNS *)
  mutable flush : unit -> unit;
}

(* --- layout ---------------------------------------------------------------- *)

(* Run 0 lives at the root itself ([root/store], [root/intake.log]) so
   every pre-multi-run artifact — the kill smoke's byte compares,
   [poc-cli forensics] defaults, --resume of an old root — keeps
   working unchanged.  Runs above 0 get their own directory. *)
let run_dir root id =
  if id = 0 then root
  else Filename.concat root (Printf.sprintf "runs/%05d" id)

(* --- instruments ----------------------------------------------------------- *)

let run_state_gauge id name =
  Metrics.gauge ~help:"Run lifecycle state (1 = the run's current state)"
    ~labels:[ ("run", string_of_int id); ("state", name) ]
    Metrics.default "poc_daemon_run_state"

let c_run_failures =
  Metrics.counter ~help:"Per-run failures absorbed by the registry"
    Metrics.default "poc_daemon_run_failures_total"

let c_run_restarts =
  Metrics.counter ~help:"Failing runs successfully scrubbed and resumed"
    Metrics.default "poc_daemon_run_restarts_total"

let c_quarantines =
  Metrics.counter ~help:"Runs escalated to quarantine at the attempt cap"
    Metrics.default "poc_daemon_run_quarantines_total"

let set_state_gauges slot =
  let current = state_name slot.state in
  List.iter
    (fun name ->
      Metrics.Gauge.set (run_state_gauge slot.sid name)
        (if name = current then 1.0 else 0.0))
    state_names

(* --- the root manifest ----------------------------------------------------- *)

(* [root/RUNS]: an append-only frame log of run lifecycle facts — which
   ids are open (and with what horizon/seed), which closed, which were
   quarantined.  It is the daemon's resume root: a restart replays it
   to learn what to bring back.  A torn tail is cut away like every
   other frame log's; a corrupt frame with records after it refuses
   the resume, since the runs those records name would silently
   vanish. *)

type manifest_event =
  | M_opened of { run : int; epochs : int; seed : int }
  | M_closed of { run : int }
  | M_quarantined of { run : int; reason : string }

let manifest_path root = Filename.concat root "RUNS"

(* Bytes after an event are ignored. *)
let event_format =
  Codec.(
    union ~unknown:"manifest tag"
      [
        case 1 (t3 int int int)
          (fun (run, epochs, seed) -> M_opened { run; epochs; seed })
          (function
            | M_opened { run; epochs; seed } -> Some (run, epochs, seed)
            | _ -> None);
        case 2 int (fun run -> M_closed { run })
          (function M_closed { run } -> Some run | _ -> None);
        case 3 (t2 int string)
          (fun (run, reason) -> M_quarantined { run; reason })
          (function
            | M_quarantined { run; reason } -> Some (run, reason) | _ -> None);
      ])

let manifest_append t ev =
  Log.append t.manifest (Codec.frame (Codec.encode event_format ev))

(* The final fact per recorded run id, and the scan the log reopens
   from.  An old root written before the manifest existed resumes as
   run 0 under the base market config. *)
let manifest_read disk root (market : Epochs.config) =
  let path = manifest_path root in
  let s =
    if Disk.exists disk path then
      Log.replay disk path ~decode:(Codec.decode event_format)
    else { Codec.frames = []; valid = 0; verdict = Codec.Clean }
  in
  match s.Codec.verdict with
  | Codec.Corrupt_at off ->
    Error
      (Printf.sprintf
         "%s: corrupt record at byte %d with records after it; refusing to \
          resume without the runs they name"
         path off)
  | Codec.Clean | Codec.Torn_tail ->
    let opened = Hashtbl.create 8 in
    List.iter
      (fun (ev, _) ->
        match ev with
        | M_opened { run; epochs; seed } ->
          Hashtbl.replace opened run (`Open (epochs, seed))
        | M_closed { run } -> Hashtbl.replace opened run `Closed
        | M_quarantined { run; reason } ->
          Hashtbl.replace opened run (`Quarantined reason))
      s.Codec.frames;
    if Hashtbl.length opened = 0 then
      if Sys.file_exists (Filename.concat root "store") then
        Hashtbl.replace opened 0
          (`Open (market.Epochs.epochs, market.Epochs.seed));
    if Hashtbl.length opened = 0 then
      Error (Printf.sprintf "%s: nothing to resume" root)
    else Ok (opened, s)

(* --- engine lifecycle ------------------------------------------------------ *)

let compile_schedule t specs =
  match Fault.compile t.plan.Planner.wan ~seed:t.fault_seed specs with
  | Ok s -> Ok s
  | Error msg -> Error ("fault schedule: " ^ msg)

(* Absorb an exception a run raised: an injected kill consumes the
   specs that fired, so the next attempt walks the rest of the chain.
   Returns the cause that replies, gauges and RUNS name. *)
let absorb slot = function
  | Supervisor.Injected_crash { epoch; phase } ->
    ignore (Recovery.consume slot.recovery ~epoch ~phase : Fault.spec list);
    Printf.sprintf "injected crash epoch=%d phase=%s" epoch
      (Fault.phase_to_string phase)
  | exn -> Printexc.to_string exn

(* Open (or resume) a slot's engine.  A fresh [Disk.t] per attempt: a
   storage fault damages the disk it was armed on, never the next
   attempt's (the fleet driver's discipline).  Whatever opening
   raises is a refusal like any other. *)
let start_slot t slot ~resume =
  let specs = Recovery.specs slot.recovery in
  match compile_schedule t specs with
  | Error msg -> Error (Supervisor.Refused msg)
  | Ok schedule -> (
    let resume =
      resume && (Sys.file_exists slot.store || Sys.file_exists slot.intake)
    in
    let disk = t.disk_for ~run:slot.sid in
    let flight =
      if t.flight then
        let open_box = if resume then Black_box.reopen else Black_box.create in
        Some (open_box (Filename.concat slot.store "FLIGHT"))
      else None
    in
    match
      Engine.create ~snapshot_every:t.snapshot_every
        ~segment_bytes:t.segment_bytes ~disk ?pool:t.pool ?flight
        ~high_water:t.high_water ~resume ~honor_crashes:(specs <> [])
        ~store:slot.store ~intake:slot.intake t.plan ~market:slot.m ~schedule
    with
    | exception exn -> Error (Supervisor.Refused (absorb slot exn))
    | Error _ as e -> e
    | Ok engine ->
      slot.engine <- Some engine;
      slot.state <- Serving;
      set_state_gauges slot;
      Ok engine)

(* Record one failure of a run: release the engine, then either arm a
   backoff retry or — past the attempt cap — quarantine, leaving the
   store intact for offline forensics.  Returns the terminal line for
   whichever client was unlucky enough to be attached. *)
let fail_slot t slot ~now_us ~cause =
  (* The loop may already be dead (an [Injected_crash] closes the
     journal before the registry sees it): release what is still open,
     best effort. *)
  (match slot.engine with
  | Some e -> ( try Engine.close e with _ -> ())
  | None -> ());
  slot.engine <- None;
  Metrics.Counter.inc c_run_failures;
  let verdict = Recovery.fail slot.recovery in
  let failures = Recovery.failures slot.recovery in
  match verdict with
  | Recovery.Quarantine ->
    slot.state <- Quarantined { cause };
    Metrics.Counter.inc c_quarantines;
    manifest_append t (M_quarantined { run = slot.sid; reason = cause });
    set_state_gauges slot;
    Printf.sprintf "GONE run=%d quarantined after %d failures: %s" slot.sid
      failures cause
  | Recovery.Retry d ->
    slot.state <-
      Failing { attempts = failures; retry_at_us = now_us +. (d *. 1e6); cause };
    set_state_gauges slot;
    Printf.sprintf "BUSY run=%d retry_after=%.3f failing attempts=%d cause=%s"
      slot.sid d failures
      (String.map (fun c -> if c = ' ' then '_' else c) cause)

(* Retire a run for good, durably: a restart will not bring it back. *)
let close_slot t slot =
  slot.state <- Closed;
  manifest_append t (M_closed { run = slot.sid });
  set_state_gauges slot

(* Reopen a failed or recorded run; any refusal is one more failure,
   except a journal whose horizon already completed: that run has
   nothing to resume, so it closes rather than spinning the retry
   ladder against an immutable store. *)
let reopen_slot t slot ~now_us ~what =
  match start_slot t slot ~resume:true with
  | Ok _ -> true
  | Error Supervisor.Completed ->
    close_slot t slot;
    false
  | Error refusal ->
    ignore
      (fail_slot t slot ~now_us
         ~cause:(what ^ " failed: " ^ Supervisor.refusal_to_string refusal)
        : string);
    false

(* A due retry: scrub the store (a storage fault's damage must be
   truncated or quarantined before resume will touch it), then resume
   with the not-yet-fired kill specs re-armed. *)
let retry_slot t slot ~now_us =
  match Recovery.scrub slot.store with
  | Some { Journal.recovered = true; _ } ->
    if reopen_slot t slot ~now_us ~what:"resume" then
      Metrics.Counter.inc c_run_restarts
  | Some _ | None ->
    ignore
      (fail_slot t slot ~now_us ~cause:"scrub found no resumable store"
        : string)

let tick t ~now_us =
  Hashtbl.iter
    (fun _ slot ->
      match slot.state with
      | Failing { retry_at_us; _ } when now_us >= retry_at_us ->
        retry_slot t slot ~now_us
      | _ -> ())
    t.slots

(* --- construction ---------------------------------------------------------- *)

let slots_sorted t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.slots []
  |> List.sort (fun a b -> compare a.sid b.sid)

(* The restart backoff: the disk layer's transient-retry schedule. *)
let restart_delays = Disk.retry_delays Disk.default_retry_policy

(* The run's directory is made by whatever writes there first: its
   flight box (through the box's own disk) or its journal store
   (through the run's). *)
let make_slot t id ~epochs ~seed =
  let dir = run_dir t.root id in
  {
    sid = id;
    store = Filename.concat dir "store";
    intake = Filename.concat dir "intake.log";
    m = { t.base_market with Epochs.epochs; seed };
    recovery =
      Recovery.create ~cap:t.attempt_cap ~delays:restart_delays
        (if id = t.fault_run then t.fault_specs else []);
    engine = None;
    state = Starting;
  }

let open_count t =
  Hashtbl.fold
    (fun _ s n ->
      match s.state with
      | Serving | Failing _ | Starting -> n + 1
      | Quarantined _ | Closed -> n)
    t.slots 0

(* Bring back every run [RUNS] recorded, in its recorded state. *)
let resume_runs t opened =
  let market = t.base_market in
  let now_us = Clock.now_us () in
  Hashtbl.iter
    (fun id fact ->
      match fact with
      | `Closed -> ()
      | `Quarantined reason ->
        let slot =
          make_slot t id ~epochs:market.Epochs.epochs ~seed:market.Epochs.seed
        in
        slot.state <- Quarantined { cause = reason };
        Hashtbl.replace t.slots id slot;
        set_state_gauges slot
      | `Open (epochs, seed) ->
        let slot = make_slot t id ~epochs ~seed in
        Hashtbl.replace t.slots id slot;
        ignore (reopen_slot t slot ~now_us ~what:"startup resume" : bool))
    opened;
  if Hashtbl.length t.slots = 0 then
    Error (Printf.sprintf "%s: every recorded run is closed" t.root)
  else Ok t

(* A fresh daemon is a fresh world: open [runs] runs under the base
   config. *)
let open_runs t runs =
  let market = t.base_market in
  let rec open_ids id =
    if id >= runs then Ok t
    else
      let slot =
        make_slot t id ~epochs:market.Epochs.epochs ~seed:market.Epochs.seed
      in
      Hashtbl.replace t.slots id slot;
      match start_slot t slot ~resume:false with
      | Ok _ ->
        manifest_append t
          (M_opened
             {
               run = id;
               epochs = market.Epochs.epochs;
               seed = market.Epochs.seed;
             });
        open_ids (id + 1)
      | Error r ->
        Error (Printf.sprintf "run %d: %s" id (Supervisor.refusal_to_string r))
  in
  open_ids 0

let create ?(snapshot_every = 4) ?(segment_bytes = 65536) ?pool
    ?(flight = false) ?(high_water = 64) ?(attempt_cap = 3) ?disk_for
    ?(resume = false) ?(runs = 1) ?(max_runs = 8) ?(fault_run = 0)
    ?(fault_specs = []) ?(fault_seed = 2020) ~root plan ~market () =
  let problems =
    List.filter_map
      (fun (msg, ok) -> if ok then None else Some msg)
      [
        ("runs must be >= 1", runs >= 1);
        ("max-runs must be >= 1", max_runs >= 1);
        ("runs must be <= max-runs", runs <= max_runs);
        ("attempt-cap must be >= 0", attempt_cap >= 0);
      ]
  in
  if problems <> [] then Error (String.concat "; " problems)
  else
    (* RUNS has a disk of its own: a run's storage faults never reach
       it. *)
    let disk = Engine.retrying_disk () in
    let path = manifest_path root in
    match
      match Disk.mkdir_p disk root with
      | exception Sys_error msg ->
        Error (Printf.sprintf "cannot create %s: %s" root msg)
      | () ->
        if resume then Result.map Option.some (manifest_read disk root market)
        else Ok None
    with
    | Error _ as e -> e
    | Ok recorded ->
      let manifest =
        match recorded with
        | None -> Log.create disk path
        | Some (_, s) ->
          Log.reopen disk path ~at:s.Codec.valid
            ~truncate:(s.Codec.verdict <> Codec.Clean)
      in
      let t =
        {
          root;
          plan;
          base_market = market;
          snapshot_every;
          segment_bytes;
          pool;
          flight;
          high_water;
          attempt_cap;
          fault_seed;
          fault_run;
          fault_specs;
          disk_for =
            (match disk_for with
            | Some f -> f
            | None -> fun ~run:_ -> Engine.retrying_disk ());
          max_runs;
          slots = Hashtbl.create 8;
          manifest;
          flush = (fun () -> ());
        }
      in
      let result =
        match recorded with
        | Some (opened, _) -> resume_runs t opened
        | None -> open_runs t runs
      in
      if Result.is_error result then Log.close manifest;
      result

let set_flush t f = t.flush <- f

let banner t =
  let per_run =
    slots_sorted t
    |> List.map (fun s ->
           Printf.sprintf "run %d: %s" s.sid
             (match s.engine with
             | Some e -> Engine.banner e
             | None -> state_name s.state))
    |> String.concat "\n"
  in
  Printf.sprintf "poc daemon: root=%s runs=%d/%d market[%s]\n%s" t.root
    (open_count t) t.max_runs
    (Epochs.describe_config t.base_market)
    per_run

let run_info s =
  {
    id = s.sid;
    state = s.state;
    next_epoch =
      (match s.engine with Some e -> Engine.next_epoch e | None -> None);
    horizon = s.m.Epochs.epochs;
    queue = (match s.engine with Some e -> Engine.queue_depth e | None -> 0);
  }

let runs t = List.map run_info (slots_sorted t)
let state_of t id = Option.map (fun s -> s.state) (Hashtbl.find_opt t.slots id)
let store_path t id = Option.map (fun s -> s.store) (Hashtbl.find_opt t.slots id)

(* --- dispatch -------------------------------------------------------------- *)

let describe_info i =
  Printf.sprintf "run=%d state=%s next=%s horizon=%d queue=%d" i.id
    (state_name i.state)
    (match (i.state, i.next_epoch) with
    | (Serving | Starting), Some e -> string_of_int e
    | (Serving | Starting), None -> "done"
    | _ -> "-")
    i.horizon i.queue

let list_runs t =
  let lines = List.map (fun s -> describe_info (run_info s)) (slots_sorted t) in
  List.map Protocol.continuation lines
  @ [ Printf.sprintf "OK runs=%d max=%d" (List.length lines) t.max_runs ]

let open_run t ~run ~epochs ~seed =
  let id =
    match run with
    | Some id -> id
    | None ->
      1 + Hashtbl.fold (fun id _ acc -> max id acc) t.slots (-1)
  in
  if Hashtbl.mem t.slots id then
    [ Printf.sprintf "ERR run %d already exists" id ]
  else if open_count t >= t.max_runs then
    [ Printf.sprintf "BUSY open retry_after=1.000 at max-runs=%d" t.max_runs ]
  else begin
    let epochs = Option.value epochs ~default:t.base_market.Epochs.epochs in
    let seed = Option.value seed ~default:t.base_market.Epochs.seed in
    let slot = make_slot t id ~epochs ~seed in
    Hashtbl.replace t.slots id slot;
    match start_slot t slot ~resume:false with
    | Ok engine ->
      manifest_append t (M_opened { run = id; epochs; seed });
      [ Printf.sprintf "OK run=%d opened next=%s horizon=%d" id
          (match Engine.next_epoch engine with
          | Some e -> string_of_int e
          | None -> "done")
          epochs ]
    | Error r ->
      Hashtbl.remove t.slots id;
      [ Printf.sprintf "ERR open run %d: %s" id
          (Supervisor.refusal_to_string r) ]
  end

let close_run t ~run =
  match Hashtbl.find_opt t.slots run with
  | None -> [ Printf.sprintf "ERR run %d unknown" run ]
  | Some slot -> (
    match slot.state with
    | Closed -> [ Printf.sprintf "GONE run=%d closed" run ]
    | Quarantined { cause } ->
      [ Printf.sprintf "GONE run=%d quarantined: %s" run cause ]
    | Starting | Serving | Failing _ ->
      (match slot.engine with
      | Some e ->
        Engine.close e;
        t.flush ()
      | None -> ());
      slot.engine <- None;
      close_slot t slot;
      [ Printf.sprintf "OK run=%d closed" run ])

let metrics_dump () =
  let body = Metrics.to_prometheus Metrics.default in
  let lines =
    String.split_on_char '\n' body
    |> List.filter (fun l -> l <> "")
    |> List.map Protocol.continuation
  in
  lines @ [ Printf.sprintf "OK metrics bytes=%d" (String.length body) ]

let quiesce_all t =
  let queue = ref 0 in
  let n = ref 0 in
  List.iter
    (fun slot ->
      match slot.engine with
      | Some e ->
        ignore (Engine.handle e Protocol.Quiesce : string list);
        incr n;
        queue := !queue + Engine.queue_depth e
      | None -> ())
    (slots_sorted t);
  t.flush ();
  [ Printf.sprintf "OK quiesced runs=%d queue=%d" !n !queue ]

(* The one stop path, for SHUTDOWN and for a signal alike: close every
   open run (a completed horizon is recorded closed, so a restart does
   not try to resume an immutable store), flush once, close [RUNS].
   Each run's close is isolated: one that raises is reported and the
   others still close.  A resume restarts an unfinished run after its
   last checkpoint, so BYE names the earliest such restart epoch. *)
let stop t =
  let serving =
    List.filter_map
      (fun s -> Option.map (fun e -> (s, e)) s.engine)
      (slots_sorted t)
  in
  let pending =
    List.filter_map
      (fun (_, e) ->
        Option.map (fun _ -> Engine.checkpoint e + 1) (Engine.next_epoch e))
      serving
  in
  List.iter
    (fun (s, e) ->
      if Engine.next_epoch e = None then close_slot t s;
      (try Engine.close e
       with exn ->
         prerr_endline
           (Printf.sprintf "poc daemon: run %d close failed: %s" s.sid
              (Printexc.to_string exn)));
      s.engine <- None)
    serving;
  t.flush ();
  Log.close t.manifest;
  match pending with
  | [] -> Printf.sprintf "BYE complete runs=%d" (List.length serving)
  | e :: rest ->
    Printf.sprintf "BYE resumable next=%d runs=%d" (List.fold_left min e rest)
      (List.length serving)

let route t ~now_us run req =
  match Hashtbl.find_opt t.slots run with
  | None -> [ Printf.sprintf "ERR run %d unknown" run ]
  | Some slot -> (
    match slot.state with
    | Closed -> [ Printf.sprintf "GONE run=%d closed" run ]
    | Quarantined { cause } ->
      [ Printf.sprintf "GONE run=%d quarantined: %s" run cause ]
    | Failing { retry_at_us; attempts; _ } ->
      let remaining = Float.max 0.001 ((retry_at_us -. now_us) *. 1e-6) in
      [ Printf.sprintf "BUSY run=%d retry_after=%.3f failing attempts=%d" run
          remaining attempts ]
    | Starting -> [ Printf.sprintf "BUSY run=%d retry_after=0.050 starting" run ]
    | Serving -> (
      match Engine.handle (Option.get slot.engine) req with
      | lines -> lines
      | exception exn ->
        (* The per-run failure domain: whatever the run raised — an
           injected crash, a disk that keeps failing — its loop is
           dead.  Absorb it here; other runs keep settling. *)
        [ fail_slot t slot ~now_us ~cause:(absorb slot exn) ]))

let dispatch t cmd =
  match cmd with
  | Protocol.Scoped { req = Protocol.Shutdown; _ } -> ([ stop t ], Stop)
  | Protocol.List_runs -> (list_runs t, Continue)
  | Protocol.Open_run { run; epochs; seed } ->
    (open_run t ~run ~epochs ~seed, Continue)
  | Protocol.Close_run { run } -> (close_run t ~run, Continue)
  | Protocol.Scoped { req = Protocol.Quiesce; _ } -> (quiesce_all t, Continue)
  | Protocol.Scoped { req = Protocol.Metrics_dump; _ } ->
    (metrics_dump (), Continue)
  | Protocol.Scoped { run; req } ->
    (route t ~now_us:(Clock.now_us ()) run req, Continue)
