(* Tests for Poc_mcf.Router: feasibility, splitting, conservation,
   incremental re-routing and failure checks. *)

module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router
module Prng = Poc_util.Prng

let check_float = Alcotest.(check (float 1e-6))

(* 0 --10--> 1 --10--> 2 plus a parallel 0-2 link of capacity 4. *)
let chain_with_shortcut () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  let e01 = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let e12 = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let e02 = Graph.add_edge g 0 2 ~weight:5.0 ~capacity:4.0 in
  (g, e01, e12, e02)

let test_simple_route () =
  let g, e01, e12, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 6.0) ] in
  Alcotest.(check bool) "feasible" true r.Router.feasible;
  check_float "total routed" 6.0 (Router.total_routed r);
  check_float "uses cheap path" 6.0 (Router.usage r e01);
  check_float "uses cheap path (2nd hop)" 6.0 (Router.usage r e12)

let test_split_when_needed () =
  let g, _, _, e02 = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 12.0) ] in
  Alcotest.(check bool) "feasible by splitting" true r.Router.feasible;
  check_float "total" 12.0 (Router.total_routed r);
  Alcotest.(check bool) "overflow takes the long link" true
    (Router.usage r e02 > 0.0)

let test_infeasible_detected () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 15.0) ] in
  Alcotest.(check bool) "infeasible" false r.Router.feasible;
  Alcotest.(check bool) "leftover reported" true (r.Router.unrouted <> []);
  let _, _, leftover = List.hd r.Router.unrouted in
  check_float "exactly one Gbps missing" 1.0 leftover

let test_capacity_never_exceeded () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 14.0); (0, 1, 0.0) ] in
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "usage <= capacity" true
        (Router.usage r e.id <= e.capacity +. 1e-6))
    (Graph.edges g);
  Alcotest.(check bool) "max utilization <= 1" true
    (Router.max_utilization g r <= 1.0 +. 1e-6)

let test_enabled_mask_respected () =
  let g, e01, _, e02 = chain_with_shortcut () in
  let r = Router.route ~enabled:(fun id -> id <> e01) g ~demands:[ (0, 2, 3.0) ] in
  Alcotest.(check bool) "feasible via shortcut" true r.Router.feasible;
  check_float "no use of disabled edge" 0.0 (Router.usage r e01);
  check_float "shortcut carries it" 3.0 (Router.usage r e02)

let test_multiple_demands_sorted_by_size () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 1, 2.0); (1, 2, 3.0); (0, 2, 5.0) ] in
  Alcotest.(check bool) "feasible" true r.Router.feasible;
  check_float "everything routed" 10.0 (Router.total_routed r)

let test_bad_demands_rejected () =
  let g, _, _, _ = chain_with_shortcut () in
  Alcotest.check_raises "self demand" (Invalid_argument "Router: self demand")
    (fun () -> ignore (Router.route g ~demands:[ (1, 1, 1.0) ]));
  Alcotest.check_raises "unknown node" (Invalid_argument "Router: unknown node")
    (fun () -> ignore (Router.route g ~demands:[ (0, 9, 1.0) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Router: bad demand")
    (fun () -> ignore (Router.route g ~demands:[ (0, 1, -2.0) ]))

let test_used_edges () =
  let g, e01, e12, e02 = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 1.0) ] in
  Alcotest.(check (list int)) "only the cheap path" [ e01; e12 ]
    (Router.used_edges r);
  ignore e02

(* --- Incremental re-route / failures --------------------------------------- *)

let test_reroute_without_unused_edge () =
  let g, _, _, e02 = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 5.0) ] in
  match Router.reroute_without_edge g ~base ~failed_edge:e02 with
  | None -> Alcotest.fail "unused edge removal must succeed"
  | Some r ->
    check_float "capacity shrinks" (base.Router.enabled_capacity -. 4.0)
      r.Router.enabled_capacity

let test_reroute_shifts_traffic () =
  let g, e01, _, e02 = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 4.0) ] in
  match Router.reroute_without_edge g ~base ~failed_edge:e01 with
  | None -> Alcotest.fail "shortcut can absorb the demand"
  | Some r ->
    check_float "moved to shortcut" 4.0 (Router.usage r e02);
    check_float "failed edge idle" 0.0 (Router.usage r e01)

let test_reroute_infeasible () =
  let g, e01, _, _ = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 6.0) ] in
  Alcotest.(check bool) "cannot absorb 6 on a 4-capacity detour" true
    (Router.reroute_without_edge g ~base ~failed_edge:e01 = None)

let test_survives_all_failures_triangle () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 2 0 ~weight:1.0 ~capacity:10.0);
  let demands = [ (0, 1, 4.0); (1, 2, 4.0) ] in
  let base = Router.route g ~demands in
  Alcotest.(check bool) "triangle survives any single failure" true
    (Router.survives_all_single_failures g ~demands base)

let test_does_not_survive_on_chain () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
  let demands = [ (0, 2, 1.0) ] in
  let base = Router.route g ~demands in
  Alcotest.(check bool) "chain dies with either link" false
    (Router.survives_all_single_failures g ~demands base)

(* --- Properties -------------------------------------------------------------- *)

let random_instance seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let n = 8 in
  Graph.add_nodes g n;
  for v = 1 to n - 1 do
    ignore
      (Graph.add_edge g (Prng.int rng v) v ~weight:(1.0 +. Prng.float rng)
         ~capacity:(5.0 +. (10.0 *. Prng.float rng)))
  done;
  for _ = 1 to 8 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then
      ignore
        (Graph.add_edge g a b ~weight:(1.0 +. Prng.float rng)
           ~capacity:(5.0 +. (10.0 *. Prng.float rng)))
  done;
  let demands = ref [] in
  for _ = 1 to 6 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then demands := (a, b, 3.0 *. Prng.float rng) :: !demands
  done;
  (g, !demands)

let test_survives_all_jobs_invariant () =
  (* The per-failure checks fan out over a domain pool; the verdict
     must not depend on the pool size (including no pool at all). *)
  let cases = List.init 12 (fun i -> random_instance (1000 + (i * 37))) in
  List.iter
    (fun (g, demands) ->
      let base = Router.route g ~demands in
      let serial = Router.survives_all_single_failures g ~demands base in
      Poc_util.Pool.with_pool ~jobs:4 (fun pool ->
          let pooled =
            Router.survives_all_single_failures ?pool g ~demands base
          in
          if pooled <> serial then
            Alcotest.failf "verdict changed under a 4-worker pool (%b vs %b)"
              pooled serial))
    cases;
  (* And on the hand-built instances with a known answer. *)
  Poc_util.Pool.with_pool ~jobs:3 (fun pool ->
      let g = Graph.create () in
      Graph.add_nodes g 3;
      ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
      ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
      ignore (Graph.add_edge g 2 0 ~weight:1.0 ~capacity:10.0);
      let demands = [ (0, 1, 4.0); (1, 2, 4.0) ] in
      let base = Router.route g ~demands in
      Alcotest.(check bool) "triangle survives (pooled)" true
        (Router.survives_all_single_failures ?pool g ~demands base))

(* The auction's single-failure spot check as it stood before
   [survives_all_single_failures ~limit] replaced it: the [limit]
   most-loaded used edges, checked one [survives_failure] at a time —
   serially with a short-circuit, or all of them on a pool. *)
let reference_spot_check ?enabled ?pool ?limit g ~demands r =
  let top =
    Router.used_edges r
    |> List.sort (fun a b -> compare (Router.usage r b) (Router.usage r a))
    |> List.filteri (fun i _ ->
           match limit with None -> true | Some k -> i < k)
  in
  let survives f =
    Router.survives_failure ?enabled g ~demands ~base:r ~failed_edge:f
  in
  match pool with
  | None -> List.for_all survives top
  | Some p -> List.for_all Fun.id (Poc_util.Pool.map_list p survives top)

let router_counters () =
  List.map
    (fun name ->
      Poc_obs.Metrics.Counter.value
        (Poc_obs.Metrics.counter Poc_obs.Metrics.default name))
    [
      "poc_router_routes_total";
      "poc_router_reroutes_total";
      "poc_router_dijkstra_total";
      "poc_router_paths_total";
    ]

(* A call's result and how far it moved each router counter. *)
let counted f =
  let before = router_counters () in
  let v = f () in
  (v, List.map2 ( -. ) (router_counters ()) before)

let test_limited_sweep_matches_reference () =
  (* Each instance is checked as the auction's prune sees it — a
     rerouted base with the removed edge disabled — and as a plain
     solve, at several limits, serially and on pools of 2 and 4. *)
  let verdicts = ref [] in
  let compare_on ?pool (g, demands) =
    let m = Graph.edge_count g in
    let base = Router.route g ~demands in
    let cases =
      (None, base)
      ::
      (match Router.used_edges base with
      | [] -> []
      | used ->
        let removed = List.nth used (m mod List.length used) in
        (match Router.reroute_without_edge g ~base ~failed_edge:removed with
        | None -> []
        | Some r -> [ (Some (fun id -> id <> removed), r) ]))
    in
    List.iter
      (fun (enabled, r) ->
        List.iter
          (fun limit ->
            let want, want_work =
              counted (fun () ->
                  reference_spot_check ?enabled ?pool ~limit g ~demands r)
            in
            let got, got_work =
              counted (fun () ->
                  Router.survives_all_single_failures ?enabled ?pool ~limit g
                    ~demands r)
            in
            verdicts := got :: !verdicts;
            Alcotest.(check bool) "same verdict as the reference loop" want got;
            Alcotest.(check (list (float 0.0)))
              "same router counter deltas (routes, reroutes, searches, paths)"
              want_work got_work)
          [ 1; 2; 5; 25 ];
        (* Verdict-only checks agree with the result-returning reroute. *)
        List.iter
          (fun f ->
            Alcotest.(check bool) "survives_failure = reroute fits"
              (Router.reroute_without_edge ?enabled g ~base:r ~failed_edge:f
              <> None)
              (Router.survives_failure ?enabled g ~demands ~base:r
                 ~failed_edge:f))
          (Router.used_edges r))
      cases
  in
  let instances = List.init 16 (fun i -> random_instance (2000 + (i * 53))) in
  List.iter compare_on instances;
  List.iter
    (fun jobs ->
      Poc_util.Pool.with_pool ~jobs (fun pool ->
          List.iter (compare_on ?pool) instances))
    [ 2; 4 ];
  Alcotest.(check bool) "both verdicts occur" true
    (List.mem true !verdicts && List.mem false !verdicts)

(* A failure batch reads the chunks each check displaces from the
   batch's crossing index; [survives_failure] finds them by scanning the
   base's chunks.  On random instances, as a plain solve and as the
   auction's prune sees them (a rerouted base with the removed edge
   disabled), serially and on pools of 2 and 4, with every edge, one or
   the 25 most loaded checked, the two agree on the verdict and on how
   far each router counter moves. *)
let qcheck_indexed_batch_matches_scan =
  QCheck.Test.make
    ~name:"indexed failure batch = survives_failure by scan (jobs 1, 2, 4)"
    ~count:15
    QCheck.(list_of_size (Gen.return 4) (int_range 0 10_000))
    (fun seeds ->
      let cases =
        List.concat_map
          (fun seed ->
            let g, demands = random_instance seed in
            let base = Router.route g ~demands in
            (g, demands, None, base)
            ::
            (match Router.used_edges base with
            | [] -> []
            | used ->
              let removed = List.nth used (seed mod List.length used) in
              (match
                 Router.reroute_without_edge g ~base ~failed_edge:removed
               with
              | None -> []
              | Some r ->
                [ (g, demands, Some (fun id -> id <> removed), r) ])))
          seeds
      in
      let agree ?pool (g, demands, enabled, r) limit =
        let want, want_work =
          counted (fun () ->
              reference_spot_check ?enabled ?pool ?limit g ~demands r)
        in
        let got, got_work =
          counted (fun () ->
              Router.survives_all_single_failures ?enabled ?pool ?limit g
                ~demands r)
        in
        want = got && want_work = got_work
      in
      List.for_all
        (fun jobs ->
          Poc_util.Pool.with_pool ~jobs (fun pool ->
              List.for_all
                (fun case ->
                  List.for_all (agree ?pool case) [ None; Some 1; Some 25 ])
                cases))
        [ 1; 2; 4 ])

(* Two hubs joined by a short link and a longer two-hop bypass, [k]
   leaves on each hub, and a 1 Gbps demand between the [i]-th leaves of
   the two sides for each [i < pairs]: every demand crosses the hub
   link, so its failure displaces [pairs] distinct pairs. *)
let hub_instance ~pairs =
  let k = 40 in
  let g = Graph.create () in
  Graph.add_nodes g (3 + (2 * k));
  let hub_link = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:1000.0 in
  ignore (Graph.add_edge g 0 2 ~weight:1.0 ~capacity:1000.0);
  ignore (Graph.add_edge g 2 1 ~weight:1.0 ~capacity:1000.0);
  for i = 0 to k - 1 do
    ignore (Graph.add_edge g 0 (3 + i) ~weight:1.0 ~capacity:10.0);
    ignore (Graph.add_edge g 1 (3 + k + i) ~weight:1.0 ~capacity:10.0)
  done;
  (g, hub_link, List.init pairs (fun i -> (3 + i, 3 + k + i, 1.0)))

let test_repair_order_independent_of_history () =
  (* A repair re-routes its displaced pairs in the iteration order of
     the domain's table.  A repair displacing 40 pairs grows that table
     past its initial buckets; a later repair must still re-route in
     the order it has on a fresh domain. *)
  let g, hub_link, ten = hub_instance ~pairs:10 in
  let _, _, forty = hub_instance ~pairs:40 in
  let small = Router.route g ~demands:ten in
  let big = Router.route g ~demands:forty in
  let reroute base () =
    match Router.reroute_without_edge g ~base ~failed_edge:hub_link with
    | Some r -> r.Router.chunks
    | None -> Alcotest.fail "the bypass carries every displaced demand"
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let fresh = on_fresh_domain (reroute small) in
  let after_big =
    on_fresh_domain (fun () ->
        ignore (reroute big ());
        reroute small ())
  in
  Alcotest.(check int) "ten displaced chunks re-routed" 10 (Array.length fresh);
  Alcotest.(check bool) "same chunks, same order" true (fresh = after_big)

(* A [w] x [h] grid, row-major node ids: latency-1 links along a row,
   latency-[down] links between rows, all of capacity [cap]. *)
let grid ~w ~h ~down ~cap =
  let g = Graph.create () in
  Graph.add_nodes g (w * h);
  for r = 0 to h - 1 do
    for c = 0 to w - 1 do
      let v = (r * w) + c in
      if c + 1 < w then
        ignore (Graph.add_edge g v (v + 1) ~weight:1.0 ~capacity:cap);
      if r + 1 < h then
        ignore (Graph.add_edge g v (v + w) ~weight:down ~capacity:cap)
    done
  done;
  g

(* A 6x6 grid: a second, larger graph, so the domain's scratch grows
   past the first graph's size between calls on it. *)
let grid_instance () =
  ( grid ~w:6 ~h:6 ~down:1.5 ~cap:6.0,
    [ (0, 35, 4.0); (5, 30, 3.0); (12, 17, 2.5) ] )

let test_results_do_not_alias_scratch () =
  let g, demands = random_instance 4242 in
  let m = Graph.edge_count g in
  let base = Router.route g ~demands in
  let failed = List.hd (Router.used_edges base) in
  let results =
    [ ("route", base) ]
    @ (match Router.reroute_without_edge g ~base ~failed_edge:failed with
      | Some r -> [ ("reroute_without_edge", r) ]
      | None -> [])
    @ [
        ( "route_toggle",
          Router.route_toggle g ~demands ~base (Router.Remove failed) );
      ]
  in
  let saved =
    List.map
      (fun (name, (r : Router.routing)) ->
        (name, r, Array.init m (Router.usage r), Array.copy r.Router.chunks))
      results
  in
  let unchanged after =
    List.iter
      (fun (name, (r : Router.routing), usage, chunks) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s usage unchanged %s" name after)
          true (Array.init m (Router.usage r) = usage);
        Alcotest.(check bool)
          (Printf.sprintf "%s chunks unchanged %s" name after)
          true (r.Router.chunks = chunks))
      saved
  in
  let g2, demands2 = grid_instance () in
  let half = List.map (fun (a, b, d) -> (a, b, d /. 2.0)) demands in
  for i = 1 to 50 do
    let skip = i mod m in
    let enabled id = id <> skip in
    (match i mod 5 with
    | 0 -> ignore (Router.route ~enabled g ~demands:half)
    | 1 -> ignore (Router.reroute_without_edge g ~base ~failed_edge:skip)
    | 2 -> ignore (Router.route_toggle g ~demands ~base (Router.Remove skip))
    | 3 -> ignore (Router.survives_failure g ~demands ~base ~failed_edge:skip)
    | _ ->
      ignore (Router.survives_all_single_failures ~enabled g ~demands base));
    if i = 25 then begin
      let base2 = Router.route g2 ~demands:demands2 in
      ignore (Router.survives_all_single_failures g2 ~demands:demands2 base2)
    end
  done;
  unchanged "after 50 more calls";
  Poc_util.Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Router.survives_all_single_failures ?pool g ~demands base));
  unchanged "after a pooled failure sweep"

(* Every routing [route], [reroute_without_edge] and [route_toggle]
   return for [random_instance seed]: the base, one reroute per used
   edge, and a Remove and an Add toggle. *)
let routings_of_seed seed =
  let g, demands = random_instance seed in
  let m = Graph.edge_count g in
  let eid = seed mod m in
  let without id = id <> eid in
  let base = Router.route g ~demands in
  let reroutes =
    List.filter_map
      (fun failed_edge -> Router.reroute_without_edge g ~base ~failed_edge)
      (Router.used_edges base)
  in
  let removed = Router.route_toggle g ~demands ~base (Router.Remove eid) in
  let added =
    Router.route_toggle ~enabled:without g ~demands
      ~base:(Router.route ~enabled:without g ~demands)
      (Router.Add eid)
  in
  (g, (base :: reroutes) @ [ removed; added ])

(* [usage] on every edge is the Gbps of the chunks crossing it, and
   [used_edges] lists, ascending, the edges whose usage exceeds the
   router's epsilon (1e-6). *)
let flow_matches_chunks g (r : Router.routing) =
  let m = Graph.edge_count g in
  let sums = Array.make m 0.0 in
  Array.iter
    (fun (c : Router.chunk) ->
      List.iter
        (fun eid -> sums.(eid) <- sums.(eid) +. c.Router.gbps)
        c.Router.edge_ids)
    r.Router.chunks;
  let ids = List.init m Fun.id in
  List.for_all
    (fun eid -> Float.abs (Router.usage r eid -. sums.(eid)) <= 1e-9)
    ids
  && Router.used_edges r
     = List.filter (fun eid -> Router.usage r eid > 1e-6) ids

let qcheck_flow_is_chunk_sums =
  QCheck.Test.make
    ~name:"usage = chunk sums, used_edges = usage above eps (jobs 1, 2, 4)"
    ~count:12
    QCheck.(list_of_size (Gen.return 6) (int_range 0 10_000))
    (fun seeds ->
      let check seed =
        let g, routings = routings_of_seed seed in
        List.for_all (flow_matches_chunks g) routings
      in
      List.for_all
        (fun jobs ->
          Poc_util.Pool.with_pool ~jobs (fun pool ->
              (match pool with
              | None -> List.map check seeds
              | Some p -> Poc_util.Pool.map_list p check seeds)
              |> List.for_all Fun.id))
        [ 1; 2; 4 ])

(* A 100 x 51 grid of unit-latency, 10 Gbps links (10,049 of them), and
   demands of 6 Gbps between nodes two hops apart along a row: each
   search settles a handful of nodes, and each routing carries flow on
   a few edges. *)
let long_grid () =
  let w = 100 in
  let demands =
    List.init 8 (fun i ->
        let v = (((i * 6) + 3) * w) + (i * 11) + 5 in
        (v, v + 2, 6.0))
  in
  (grid ~w ~h:51 ~down:1.0 ~cap:10.0, demands)

(* Words [f ()] allocates on the calling domain's minor and major heaps.
   A routing that owned a per-link array would cost at least one word a
   link.  (A Bigarray's payload lives outside the heap and does not
   show here.) *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_calls_allocate_by_flow () =
  let g, demands = long_grid () in
  let m = Graph.edge_count g in
  Alcotest.(check bool) "at least 10^4 links" true (m >= 10_000);
  let base = Router.route g ~demands in
  Alcotest.(check bool) "base feasible" true base.Router.feasible;
  let failed = List.hd (Router.used_edges base) in
  Alcotest.(check bool) "the removed edge carries flow" true
    (Router.usage base failed > 1e-6);
  Alcotest.(check bool) "a detour carries its flow" true
    (Router.reroute_without_edge g ~base ~failed_edge:failed <> None);
  (* Warm-up: the domain's scratch has grown to this graph. *)
  ignore (Router.route_toggle g ~demands ~base (Router.Remove failed));
  let over =
    List.filter_map
      (fun (name, call) ->
        let words = words_allocated call in
        if words < float_of_int m /. 10.0 then None
        else Some (Printf.sprintf "%s %.0f" name words))
    [
      ("route", fun () -> Router.route g ~demands);
      ( "reroute_without_edge",
        fun () ->
          Option.get (Router.reroute_without_edge g ~base ~failed_edge:failed)
      );
      ( "route_toggle (Remove e)",
        fun () -> Router.route_toggle g ~demands ~base (Router.Remove failed) );
    ]
  in
  if over <> [] then
    Alcotest.failf "words allocated on a %d-link graph: %s" m
      (String.concat ", " over)

let qcheck_conservation =
  QCheck.Test.make ~name:"routed + unrouted = offered" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      let offered = List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands in
      let unrouted =
        List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 r.Router.unrouted
      in
      Float.abs (Router.total_routed r +. unrouted -. offered) < 1e-6)

let qcheck_capacity_respected =
  QCheck.Test.make ~name:"usage never exceeds capacity" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      Graph.fold_edges
        (fun e acc -> acc && Router.usage r e.Graph.id <= e.capacity +. 1e-6)
        g true)

let qcheck_chunks_are_real_paths =
  QCheck.Test.make ~name:"chunks are contiguous src->dst paths" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      Array.for_all
        (fun (c : Router.chunk) ->
          let rec walk node = function
            | [] -> node = c.Router.dst
            | eid :: rest ->
              let e = Graph.edge g eid in
              if e.Graph.u = node then walk e.Graph.v rest
              else if e.Graph.v = node then walk e.Graph.u rest
              else false
          in
          walk c.Router.src c.Router.edge_ids)
        r.Router.chunks)

(* route_toggle: the incremental answer must be a superset verdict of
   the from-scratch one (never misses a feasible set), always valid for
   the toggled enabled set, and deterministic. *)
let qcheck_toggle_remove_superset_and_valid =
  QCheck.Test.make ~name:"route_toggle Remove: superset, valid, deterministic"
    ~count:80
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let m = Graph.edge_count g in
      let eid = seed * 13 mod m in
      let base = Router.route g ~demands in
      let toggled = Router.route_toggle g ~demands ~base (Router.Remove eid) in
      let again = Router.route_toggle g ~demands ~base (Router.Remove eid) in
      let scratch = Router.route ~enabled:(fun id -> id <> eid) g ~demands in
      let superset = (not scratch.Router.feasible) || toggled.Router.feasible in
      let removed_idle = Float.abs (Router.usage toggled eid) < 1e-9 in
      let capacity_ok =
        Graph.fold_edges
          (fun e acc ->
            acc && Router.usage toggled e.Graph.id <= e.capacity +. 1e-6)
          g true
      in
      let offered =
        List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands
      in
      let unrouted =
        List.fold_left
          (fun acc (_, _, d) -> acc +. d)
          0.0 toggled.Router.unrouted
      in
      let conserves =
        Float.abs (Router.total_routed toggled +. unrouted -. offered) < 1e-6
      in
      let deterministic =
        toggled.Router.feasible = again.Router.feasible
        && Array.init m (Router.usage toggled)
           = Array.init m (Router.usage again)
      in
      superset && removed_idle && capacity_ok && conserves && deterministic)

let qcheck_toggle_add_superset =
  QCheck.Test.make ~name:"route_toggle Add: superset of from-scratch" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let m = Graph.edge_count g in
      let eid = seed * 17 mod m in
      let enabled id = id <> eid in
      let base = Router.route ~enabled g ~demands in
      let toggled =
        Router.route_toggle ~enabled g ~demands ~base (Router.Add eid)
      in
      let scratch = Router.route g ~demands in
      let superset = (not scratch.Router.feasible) || toggled.Router.feasible in
      let capacity_ok =
        Graph.fold_edges
          (fun e acc ->
            acc && Router.usage toggled e.Graph.id <= e.capacity +. 1e-6)
          g true
      in
      superset && capacity_ok)

let test_toggle_preconditions () =
  let g, e01, _, _ = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 1.0) ] in
  Alcotest.check_raises "Remove of a disabled edge rejected"
    (Invalid_argument "Router.route_toggle: Remove of a disabled edge")
    (fun () ->
      ignore
        (Router.route_toggle
           ~enabled:(fun id -> id <> e01)
           g ~demands:[ (0, 2, 1.0) ] ~base (Router.Remove e01)));
  Alcotest.check_raises "Add of an enabled edge rejected"
    (Invalid_argument "Router.route_toggle: Add of an enabled edge")
    (fun () ->
      ignore
        (Router.route_toggle g ~demands:[ (0, 2, 1.0) ] ~base
           (Router.Add e01)))

let suite =
  [
    Alcotest.test_case "simple route" `Quick test_simple_route;
    Alcotest.test_case "splits across paths" `Quick test_split_when_needed;
    Alcotest.test_case "infeasibility detected" `Quick test_infeasible_detected;
    Alcotest.test_case "capacity never exceeded" `Quick test_capacity_never_exceeded;
    Alcotest.test_case "enabled mask respected" `Quick test_enabled_mask_respected;
    Alcotest.test_case "multiple demands" `Quick test_multiple_demands_sorted_by_size;
    Alcotest.test_case "bad demands rejected" `Quick test_bad_demands_rejected;
    Alcotest.test_case "used edges" `Quick test_used_edges;
    Alcotest.test_case "reroute without unused edge" `Quick
      test_reroute_without_unused_edge;
    Alcotest.test_case "reroute shifts traffic" `Quick test_reroute_shifts_traffic;
    Alcotest.test_case "reroute infeasible" `Quick test_reroute_infeasible;
    Alcotest.test_case "triangle survives failures" `Quick
      test_survives_all_failures_triangle;
    Alcotest.test_case "chain does not survive" `Quick test_does_not_survive_on_chain;
    Alcotest.test_case "failure sweep verdict is jobs-invariant" `Quick
      test_survives_all_jobs_invariant;
    Alcotest.test_case "route_toggle preconditions" `Quick
      test_toggle_preconditions;
    Alcotest.test_case "limited failure sweep = reference spot check" `Quick
      test_limited_sweep_matches_reference;
    Alcotest.test_case "returned routings do not alias scratch" `Quick
      test_results_do_not_alias_scratch;
    Alcotest.test_case "route, reroute and toggle allocate by flow, not links"
      `Quick test_calls_allocate_by_flow;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    QCheck_alcotest.to_alcotest qcheck_capacity_respected;
    QCheck_alcotest.to_alcotest qcheck_chunks_are_real_paths;
    QCheck_alcotest.to_alcotest qcheck_toggle_remove_superset_and_valid;
    QCheck_alcotest.to_alcotest qcheck_toggle_add_superset;
    QCheck_alcotest.to_alcotest qcheck_flow_is_chunk_sums;
    QCheck_alcotest.to_alcotest qcheck_indexed_batch_matches_scan;
    Alcotest.test_case "repair order does not depend on earlier repairs"
      `Quick test_repair_order_independent_of_history;
  ]
