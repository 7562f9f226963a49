(* scale — the same layers as fig2 used the other way round: a large
   generated WAN with E19's fixed 12-demand set, at --jobs 1.  Each
   round runs one Vcg.select_greedy under Constraint #1 over the full
   offer set and passes over E19's 60-query toggle sequence against one
   shared base routing.  Few demands, few probes and little sharing, so
   per-probe O(links) work (a 17,925-character cache key per probe),
   CSR walks and incremental repair dominate.  A full Vcg.run at scale
   does not finish in minutes, and gravity demands make one route take
   seconds, hence selection plus the toggle kernel.

   The instance is E19's quick preset (seed 42: 17,925 offered links,
   131 routers) rather than the full Wan.scale_params one (150,807
   links): there one selection takes 3-4 s, a 30-second run fits six,
   and its slabs live in the shared L3 cache, so on the reference host
   the run-to-run spread of the fastest selection was 0.26, beyond any
   bound a gate may use.  As in fig2 the instance is fixed; the workload
   seed orders the toggle queries. *)

module H = Harness
module Trace = Poc_obs.Trace
module Wan = Poc_topology.Wan
module Setup = Poc_auction.Setup
module Vcg = Poc_auction.Vcg
module Acc = Poc_auction.Acceptability

(* The gated figures are fastest windows of [rounds_per_window]
   consecutive rounds: a second or more of selections (0.27 s or more
   each) and, with [passes] toggle passes of 60 queries per round, a
   second or more of toggles (a pass takes 20 ms or more). *)
let rounds_per_window = 4

let passes = 14

(* An untraced run sets up again every [setup_every] rounds (about
   every 2.5 s). *)
let setup_every = 4

let instance_seed = 42

(* E19's quick preset (bench/e19_scale.ml): the --scale generator
   shrunk to about 2x10^4 links. *)
let params =
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

type instance = {
  problem : Vcg.problem;
  toggles : Toggles.t;
  probes : Probes.t;
  generate_s : float;
}

(* Generation, problem assembly, and the warm-up: the base routing and
   the toggle verdicts, which fill the CSR views. *)
let build ~seed () =
  let wan, generate_s =
    H.time (fun () -> Wan.generate ~params ~seed:instance_seed ())
  in
  let g = wan.Wan.graph in
  let demands = Toggles.make_demands g ~count:12 in
  let problem =
    {
      Vcg.graph = g;
      demands;
      bids = Setup.truthful_bids wan;
      virtual_prices = Setup.virtual_prices wan;
      rule = Acc.Handle_load;
    }
  in
  let toggles = Toggles.create g ~demands ~count:60 ~seed in
  let probes =
    Probes.create g ~demands ~edges:(Array.to_list (Array.sub toggles.Toggles.edges 0 8))
  in
  { problem; toggles; probes; generate_s }

let same (a : Vcg.selection) (b : Vcg.selection) =
  a.Vcg.selected = b.Vcg.selected && a.Vcg.cost = b.Vcg.cost

let run ~seed ~seconds ~trace =
  let checks = H.ledger () in
  let setup = H.samples () and generate = H.samples () in
  (* Only one instance is ever live: the current one is dropped before
     the next is built. *)
  let current = ref None in
  let set_up () =
    current := None;
    let i = H.set_up setup (build ~seed) in
    H.add generate i.generate_s;
    current := Some i;
    i
  in
  let first = set_up () in
  let verdicts = first.toggles.Toggles.verdicts in
  let queries = passes * Array.length verdicts in
  H.record checks ~ok:(Toggles.superset_holds first.toggles)
    "toggle superset property (scratch-feasible must imply repair-feasible)";
  (* The warm-up selection, outside set-up: every timed one must
     reproduce it. *)
  let reference = Vcg.select_greedy first.problem in
  (* As in fig2: set-ups before the loop only in a traced run, every
     [setup_every] rounds in an untraced one. *)
  if trace then for _ = 2 to 5 do ignore (set_up () : instance) done;
  let select = H.samples () and round_query = H.samples () and toggle = H.samples () in
  let readings = Probes.readings () in
  let alloc = ref 0.0 in
  Poc_obs.Metrics.reset Poc_obs.Metrics.default;
  let router0 = Probes.router_counts () in
  let round r =
    if r > 0 && r mod setup_every = 0 && not trace then begin
      let i = set_up () in
      H.record checks ~ok:(i.toggles.Toggles.verdicts = verdicts)
        "set-up differs from the first"
    end;
    let i = Option.get !current in
    let s, dt =
      H.allocating alloc (fun () ->
          H.time (fun () ->
              Trace.with_span "op.select" (fun () ->
                  Trace.with_span "Vcg.select_greedy" (fun () ->
                      Vcg.select_greedy i.problem))))
    in
    H.add select dt;
    H.record checks
      ~ok:
        (match (s, reference) with
        | Some s, Some r -> same s r
        | _ -> false)
      "selection differs from warm-up";
    let query_s = ref 0.0 in
    for p = 1 to passes do
      let samples = if p = 1 then Some toggle else None in
      query_s :=
        !query_s +. H.allocating alloc (fun () -> Toggles.pass ?samples i.toggles checks)
    done;
    H.add round_query (!query_s /. float_of_int queries);
    Probes.run i.probes readings checks
  in
  let rounds, plain, overhead_pct = H.closed_loop ~seconds ~trace round in
  let i = Option.get !current in
  let layers =
    Layers.complete
      (H.m ~n:generate.H.n "topology.generate_ms" "ms" (1000.0 *. H.median generate)
      :: Layers.common ~probes:i.probes ~readings ~rounds ~router0 ~overhead_pct
           ~alloc_per_round:(!alloc /. float_of_int plain))
  in
  {
    H.workload = "scale";
    jobs = 1;
    seed;
    rounds;
    instance =
      Printf.sprintf "%d offered links, %d routers, %d demands"
        (Poc_graph.Graph.edge_count i.problem.Vcg.graph)
        (Poc_graph.Graph.node_count i.problem.Vcg.graph)
        (List.length i.problem.Vcg.demands);
    e2e =
      [
        H.m ~n:setup.H.n "setup_s" "s" (H.minimum setup);
        H.m "peak_rss_mb" "MB" (H.peak_rss_mb ());
        H.m ~n:select.H.n "auction_ms" "ms"
          (1000.0 *. H.fastest_window select ~k:rounds_per_window);
        H.m ~n:round_query.H.n "query_us" "us"
          (1e6 *. H.fastest_window round_query ~k:rounds_per_window);
      ];
    detail =
      [
        H.m ~n:setup.H.n "setup_median_s" "s" (H.median setup);
        H.m ~n:select.H.n "select_s" "s" (H.median select);
        H.m ~n:toggle.H.n "toggle_ms" "ms" (1000.0 *. H.median toggle);
        H.m ~n:toggle.H.n "toggle_p99_us" "us" (1e6 *. H.quantile toggle 0.99);
        List.find (fun x -> x.H.name = "host.calib_ms") layers;
      ];
    layers;
    checks;
  }
