(* Per-layer probes every round runs once, on its workload's own
   instance: one Router.route, Paths.dijkstra from a fixed set of
   sources, one Sparse.build, Feascache probes with full-width keys,
   and the host loop.  They sit beside the workload's operations in
   the same rounds, so a slow second lands on them too. *)

module H = Harness
module Trace = Poc_obs.Trace
module Graph = Poc_graph.Graph
module Paths = Poc_graph.Paths
module Sparse = Poc_graph.Sparse
module Router = Poc_mcf.Router
module Feascache = Poc_auction.Feascache

type t = {
  graph : Graph.t;
  demands : Router.demand list;
  sources : int list;
  edges : int list;
  cache : Feascache.t;
  reference : Router.routing;  (** the probe route's answer at set-up *)
  route_counts : float * float * float;
      (** (routes, dijkstra, paths) one probe route adds to the router
          counters, so the ledger can leave them out *)
}

(* What the probes read over a whole run, across set-ups. *)
type readings = {
  route : H.samples;
  dijkstra : H.samples;
  csr : H.samples;
  cache_probe : H.samples;
  calib : H.samples;
  mutable probes : int;  (** Feascache lookups made here *)
}

let readings () =
  {
    route = H.samples ();
    dijkstra = H.samples ();
    csr = H.samples ();
    cache_probe = H.samples ();
    calib = H.samples ();
    probes = 0;
  }

let key_without ~m eid = String.init m (fun i -> if i = eid then '0' else '1')

let router_counts () =
  ( H.counter "poc_router_routes_total",
    H.counter "poc_router_dijkstra_total",
    H.counter "poc_router_paths_total" )

(* [edges] names the links whose all-but-one enabled sets are cached;
   each round looks every one of them up again, building its key the
   way the auction's probe does: one character per offered link. *)
let create graph ~demands ~edges =
  let n = Graph.node_count graph and m = Graph.edge_count graph in
  let sources = List.init (min n 8) (fun i -> i * n / min n 8) in
  let cache = Feascache.create ~digest:"perfbench-probe" in
  List.iter (fun eid -> Feascache.add_feas cache (key_without ~m eid) true) edges;
  Feascache.join cache;
  let r0, d0, p0 = router_counts () in
  let reference = Router.route graph ~demands in
  let r1, d1, p1 = router_counts () in
  {
    graph;
    demands;
    sources;
    edges;
    cache;
    reference;
    route_counts = (r1 -. r0, d1 -. d0, p1 -. p0);
  }

let run t (rd : readings) (checks : H.ledger) =
  let r, dt =
    H.time (fun () ->
        Trace.with_span "Router.route" (fun () -> Router.route t.graph ~demands:t.demands))
  in
  H.add rd.route dt;
  H.record checks
    ~ok:
      (r.Router.feasible = t.reference.Router.feasible
      && Router.total_routed r = Router.total_routed t.reference)
    "probe route differs from set-up";
  let k = float_of_int (List.length t.sources) in
  H.add rd.dijkstra
    (H.per_call (fun () ->
         List.iter
           (fun src ->
             ignore
               (Trace.with_span "Paths.dijkstra" (fun () -> Paths.dijkstra t.graph src)
                 : float array * int option array))
           t.sources)
    /. k);
  H.add rd.csr
    (H.per_call (fun () ->
         ignore (Trace.with_span "Sparse.build" (fun () -> Sparse.build t.graph) : Sparse.t)));
  let m = Graph.edge_count t.graph in
  let misses = ref 0 in
  let dt =
    H.per_call (fun () ->
        List.iter
          (fun eid ->
            rd.probes <- rd.probes + 1;
            let key = key_without ~m eid in
            match
              Trace.with_span "Feascache.find_feas" (fun () ->
                  Feascache.find_feas t.cache key)
            with
            | Some true -> ()
            | Some false | None -> incr misses)
          t.edges)
  in
  H.add rd.cache_probe (dt /. float_of_int (List.length t.edges));
  H.record checks ~ok:(!misses = 0) "feascache probe missed";
  let v, dt = H.time H.calib_loop in
  H.add rd.calib dt;
  H.record checks ~ok:(v = H.calib_expected) "host loop"

(* The router counters with the probes' own routes taken out, per round. *)
let router_per_round t ~rounds ~before:(r0, d0, p0) =
  let r1, d1, p1 = router_counts () in
  let pr, pd, pp = t.route_counts in
  let per x = x /. float_of_int rounds in
  let probes = float_of_int rounds in
  ( per (r1 -. r0 -. (probes *. pr)),
    per (d1 -. d0 -. (probes *. pd)),
    per (p1 -. p0 -. (probes *. pp)) )

let layers (rd : readings) =
  [
    H.m ~n:rd.route.H.n "mcf.route_ms" "ms" (1000.0 *. H.median rd.route);
    H.m ~n:rd.dijkstra.H.n "graph.dijkstra_us" "us" (1e6 *. H.median rd.dijkstra);
    H.m ~n:rd.csr.H.n "graph.csr_build_ms" "ms" (1000.0 *. H.median rd.csr);
    H.m ~n:rd.cache_probe.H.n "auction.cache_probe_us" "us"
      (1e6 *. H.median rd.cache_probe);
    H.m ~n:rd.calib.H.n "host.calib_ms" "ms" (1000.0 *. H.median rd.calib);
  ]
