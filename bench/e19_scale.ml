(* E19 (extension) — continent-scale feasibility: the docs/SCALING.md
   numbers.  Generates the --scale WAN preset (~10^5 offered links;
   quick mode shrinks it to ~2x10^4), then answers the same sequence of
   single-link feasibility questions three ways:

     scratch   a full Router.route per toggled enabled set
     repair    Router.route_toggle against one shared base routing
     warm      a Feascache probe after the repair pass populated it

   and reports per-query rates plus the combined speedup of the cached
   path (repair to populate + warm hits thereafter) over from-scratch —
   the >= 5x headline.  A second part replays a small supervised
   market (no faults) at jobs {1,4} with the cache enabled and disabled
   and checks the four runs byte-identical (their epoch reports
   marshalled, every float bit-exact):
   the determinism claim the cache and the incremental router must
   both uphold. *)

module Wan = Poc_topology.Wan
module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router
module Feascache = Poc_auction.Feascache
module Acc = Poc_auction.Acceptability
module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Fault = Poc_resilience.Fault
module Supervisor = Poc_resilience.Supervisor
module Pool = Poc_util.Pool

(* Quick mode: same generator, shrunk footprint (~2x10^4 links). *)
let quick_params =
  {
    Wan.scale_params with
    Wan.n_sites = 260;
    n_operators = 70;
    n_bps = 50;
    operator_min_sites = 22;
    operator_max_sites = 48;
    colocation_threshold = 8;
    external_attachments = 12;
  }

(* Deterministic demand set over the POC graph: spread endpoints across
   the node range, volumes small enough that the base set is feasible. *)
let make_demands g ~count =
  let n = Graph.node_count g in
  List.init count (fun i ->
      let a = (i * 7919) mod n in
      let b = (a + 1 + ((i * 104729) mod (n - 1))) mod n in
      (min a b, max a b, 4.0 +. float_of_int (i mod 5)))

(* The toggle sequence mixes edges that carry base flow (real repair
   work) with edges spread over the whole id space (mostly idle, the
   common case at this sparsity). *)
let make_toggles ~m ~used ~count =
  let used = Array.of_list used in
  let seen = Hashtbl.create count in
  let out = ref [] in
  let push e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      out := e :: !out
    end
  in
  for i = 0 to (count / 2) - 1 do
    if Array.length used > 0 then
      push used.(i * 31 mod Array.length used)
  done;
  let i = ref 0 in
  while List.length !out < count && !i < m do
    push (!i * 6151 mod m);
    incr i
  done;
  List.rev !out

let key_without ~m eid =
  String.init m (fun i -> if i = eid then '0' else '1')

let part_scale ~scale ~seed =
  let params =
    match scale with
    | Common.Paper -> Wan.scale_params
    | Common.Quick -> quick_params
  in
  let wan = Common.timed "generate --scale wan" (fun () ->
      Wan.generate ~params ~seed ())
  in
  let g = wan.Wan.graph in
  let m = Graph.edge_count g in
  Printf.printf "offered links: %d  poc routers: %d\n" m (Graph.node_count g);
  let demands = make_demands g ~count:12 in
  let base = Router.route g ~demands in
  Printf.printf "base: feasible=%b routed=%.0f Gbps on %d links\n"
    base.Router.feasible (Router.total_routed base)
    (List.length (Router.used_edges base));
  let n_queries =
    match scale with Common.Paper -> 60 | Common.Quick -> 40
  in
  let toggles =
    make_toggles ~m ~used:(Router.used_edges base) ~count:n_queries
  in
  let nq = List.length toggles in
  (* Pass 1: from-scratch route per toggled set. *)
  let scratch = Array.make nq false in
  let (), scratch_s =
    Common.timed_s "scratch pass" (fun () ->
        List.iteri
          (fun i eid ->
            let r = Router.route ~enabled:(fun id -> id <> eid) g ~demands in
            scratch.(i) <- r.Router.feasible)
          toggles)
  in
  (* Pass 2: incremental repair against the shared base, populating the
     cache the way Vcg.run's rule_ok does. *)
  let cache = Feascache.create ~digest:(Printf.sprintf "e19-seed%d" seed) in
  let repaired = Array.make nq false in
  let (), repair_s =
    Common.timed_s "repair pass" (fun () ->
        List.iteri
          (fun i eid ->
            let r = Router.route_toggle g ~demands ~base (Router.Remove eid) in
            repaired.(i) <- r.Router.feasible;
            Feascache.add_feas cache (key_without ~m eid) r.Router.feasible)
          toggles)
  in
  Feascache.join cache;
  (* Pass 3: the same queries served warm from the cache. *)
  let warm_hits = ref 0 in
  let (), warm_s =
    Common.timed_s "warm pass" (fun () ->
        List.iteri
          (fun i eid ->
            match Feascache.find_feas cache (key_without ~m eid) with
            | Some v ->
              incr warm_hits;
              assert (v = repaired.(i))
            | None -> ())
          toggles)
  in
  (* route_toggle's verdict is a superset of route's: scratch-feasible
     must imply repair-feasible. *)
  let agree = ref 0 in
  Array.iteri
    (fun i s -> if s && not repaired.(i) then failwith "verdict regression"
      else if s = repaired.(i) then incr agree)
    scratch;
  let per q s = float_of_int q /. s in
  let speedup_repair = scratch_s /. repair_s in
  let speedup_warm = scratch_s /. warm_s in
  let combined = 2.0 *. scratch_s /. (repair_s +. warm_s) in
  Poc_util.Table.print
    ~align:[ Poc_util.Table.Left; Poc_util.Table.Right; Poc_util.Table.Right ]
    ~header:[ "mode"; "queries/s"; "speedup" ]
    [
      [ "scratch"; Common.fmt ~decimals:1 (per nq scratch_s); "1.0" ];
      [ "repair"; Common.fmt ~decimals:1 (per nq repair_s);
        Common.fmt ~decimals:1 speedup_repair ];
      [ "warm"; Common.fmt ~decimals:1 (per nq warm_s);
        Common.fmt ~decimals:1 speedup_warm ];
    ];
  Printf.printf
    "%d/%d verdicts agree (repair is a superset: no regressions)\n"
    !agree nq;
  Printf.printf "warm hits: %d/%d\n" !warm_hits nq;
  Printf.printf
    "combined feasibility-query speedup (repair + warm vs scratch): %.1fx \
     (target >= 5x)\n"
    combined;
  Printf.sprintf
    "{\"links\":%d,\"queries\":%d,\"scratch_s\":%.4f,\"repair_s\":%.4f,\
     \"warm_s\":%.4f,\"speedup_repair\":%.2f,\"speedup_warm\":%.2f,\
     \"speedup_combined\":%.2f}"
    m nq scratch_s repair_s warm_s speedup_repair speedup_warm combined

(* Byte-identity of market outcomes: cache {on,off} x jobs {1,4}. *)
let part_identity ~seed =
  Common.subheader "outcome identity: cache {on,off} x jobs {1,4}";
  let config =
    Planner.scaled_config ~sites:24 ~bps:8
      { Planner.default_config with Planner.seed; rule = Acc.Handle_load }
  in
  match Planner.build config with
  | Error msg -> failwith ("planning failed: " ^ msg)
  | Ok plan ->
    let market = { Epochs.default_config with Epochs.epochs = 3; seed } in
    let was_enabled = Feascache.enabled () in
    let run_one ~cache_on ~jobs =
      Feascache.set_enabled cache_on;
      let report =
        Pool.with_pool ~jobs (fun pool ->
            Supervisor.run ?pool plan ~market ~schedule:Fault.none)
      in
      Marshal.to_string report.Supervisor.epochs [ Marshal.No_sharing ]
    in
    let runs =
      List.map
        (fun (cache_on, jobs) ->
          ((cache_on, jobs), run_one ~cache_on ~jobs))
        [ (true, 1); (true, 4); (false, 1); (false, 4) ]
    in
    Feascache.set_enabled was_enabled;
    let (_, reference) = List.hd runs in
    let identical =
      List.for_all (fun (_, bytes) -> String.equal bytes reference) runs
    in
    List.iter
      (fun ((cache_on, jobs), bytes) ->
        Printf.printf "cache=%-3s jobs=%d  %d bytes  %s\n"
          (if cache_on then "on" else "off")
          jobs (String.length bytes)
          (if String.equal bytes reference then "identical" else "DIFFERS"))
      runs;
    if not identical then failwith "cache/jobs outcome divergence";
    Printf.printf "all four runs byte-identical: %b\n" identical;
    Printf.sprintf "{\"configs\":4,\"identical\":%b}" identical

let run ~scale ~seed =
  Common.header
    "E19 — continent-scale feasibility: cache + incremental repair vs scratch";
  Common.reset_metrics ();
  let scale_json = part_scale ~scale ~seed in
  let identity_json = part_identity ~seed in
  Common.write_metrics_artifact
    ~extra:[ ("scale", scale_json); ("identity", identity_json) ]
    ~label:"e19" ()
