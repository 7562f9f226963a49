module Prng = Poc_util.Prng
module Heap = Poc_graph.Heap
module Router = Poc_mcf.Router
module Planner = Poc_core.Planner
module Matrix = Poc_traffic.Matrix

type config = {
  horizon_hours : float;
  mtbf_hours : float;
  mttr_hours : float;
  seed : int;
}

let default_config =
  { horizon_hours = 720.0; mtbf_hours = 2000.0; mttr_hours = 12.0; seed = 1 }

type event = Fail of int | Repair of int

type sample = {
  time_h : float;
  event : event;
  delivered_fraction : float;
  concurrent_failures : int;
}

type report = {
  samples : sample list;
  availability : float;
  worst_fraction : float;
  failure_events : int;
  max_concurrent_failures : int;
}

(* Every bad field is reported at once, not just the first. *)
let config_problems config =
  let bad = ref [] in
  let check ok msg = if not ok then bad := msg :: !bad in
  let positive v = Float.is_finite v && v > 0.0 in
  check (positive config.horizon_hours) "horizon_hours must be positive";
  check (positive config.mtbf_hours) "mtbf_hours must be positive";
  check (positive config.mttr_hours) "mttr_hours must be positive";
  List.rev !bad

let validate_config config =
  match config_problems config with
  | [] -> Ok ()
  | problems -> Error ("Availability: " ^ String.concat "; " problems)

let simulate (plan : Planner.plan) config =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let rng = Prng.create config.seed in
  let g = plan.Planner.wan.Poc_topology.Wan.graph in
  let selected = plan.Planner.outcome.Poc_auction.Vcg.selection.Poc_auction.Vcg.selected in
  let in_backbone = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace in_backbone id ()) selected;
  let failed = Hashtbl.create 16 in
  let demands = Matrix.undirected_pair_demands plan.Planner.matrix in
  let total_demand =
    List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands
  in
  let delivered_fraction () =
    if total_demand <= 0.0 then 1.0
    else begin
      let enabled id =
        Hashtbl.mem in_backbone id && not (Hashtbl.mem failed id)
      in
      let r = Router.route ~enabled g ~demands in
      Router.total_routed r /. total_demand
    end
  in
  (* Event queue keyed by time, of events encoded as ints: [2·id] for
     a failure of link [id], [2·id+1] for its repair. *)
  let queue = Heap.create () in
  let push t = function
    | Fail id -> Heap.push queue t (2 * id)
    | Repair id -> Heap.push queue t ((2 * id) + 1)
  in
  let decode code = if code land 1 = 0 then Fail (code / 2) else Repair (code / 2) in
  List.iter
    (fun id -> push (Prng.exponential rng (1.0 /. config.mtbf_hours)) (Fail id))
    selected;
  let samples = ref [] in
  let weighted = ref 0.0 in
  let worst = ref 1.0 in
  let failures = ref 0 in
  let max_concurrent = ref 0 in
  let rec loop prev_time prev_fraction =
    match Heap.pop queue with
    | None -> (prev_time, prev_fraction)
    | Some (t, _) when t >= config.horizon_hours -> (prev_time, prev_fraction)
    | Some (t, code) ->
      let ev = decode code in
      weighted := !weighted +. (prev_fraction *. (t -. prev_time));
      (match ev with
      | Fail id ->
        Hashtbl.replace failed id ();
        incr failures;
        max_concurrent := max !max_concurrent (Hashtbl.length failed);
        push (t +. Prng.exponential rng (1.0 /. config.mttr_hours)) (Repair id)
      | Repair id ->
        Hashtbl.remove failed id;
        push (t +. Prng.exponential rng (1.0 /. config.mtbf_hours)) (Fail id));
      let fraction = delivered_fraction () in
      worst := Float.min !worst fraction;
      samples :=
        { time_h = t; event = ev; delivered_fraction = fraction;
          concurrent_failures = Hashtbl.length failed }
        :: !samples;
      loop t fraction
  in
  let last_time, last_fraction = loop 0.0 1.0 in
  weighted := !weighted +. (last_fraction *. (config.horizon_hours -. last_time));
  {
    samples = List.rev !samples;
    availability = !weighted /. config.horizon_hours;
    worst_fraction = !worst;
    failure_events = !failures;
    max_concurrent_failures = !max_concurrent;
  }
