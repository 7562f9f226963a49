(* The result line's fixed shape, as BENCHMARK.json declares it.

   The end-to-end metrics every workload fills with its own operations. *)

module H = Harness

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("auction_ms", "ms");
    ("query_us", "us");
  ]

(* The per-layer ledger.  Every workload reports every name, so runs of
   different workloads line up; a layer a workload does not exercise
   reads 0.  Layers are the lib/ modules. *)

let names =
  [
    ("topology.generate_ms", "ms");
    ("traffic.gravity_ms", "ms");
    ("auction.select_ms", "ms");
    ("auction.pivots_ms", "ms");
    ("auction.candidate_evals", "1/round");
    ("auction.pivots", "count");
    ("auction.probe_hit_ratio", "ratio");
    ("auction.feascache_hit_ratio", "ratio");
    ("auction.cache_probe_us", "us");
    ("mcf.routes", "1/round");
    ("mcf.reroutes", "count");
    ("mcf.paths", "1/round");
    ("mcf.route_ms", "ms");
    ("mcf.toggle_repair_ratio", "ratio");
    ("graph.dijkstra", "1/round");
    ("graph.dijkstra_us", "us");
    ("graph.csr_build_ms", "ms");
    ("resilience.phase_drift_ms", "ms");
    ("resilience.phase_auction_ms", "ms");
    ("resilience.phase_routing_ms", "ms");
    ("resilience.phase_settlement_ms", "ms");
    ("resilience.phase_journal_ms", "ms");
    ("resilience.journal_bytes", "count");
    ("resilience.journal_flushes", "count");
    ("resilience.journal_rotations", "count");
    ("resilience.disk_opens", "count");
    ("resilience.disk_renames", "count");
    ("resilience.disk_reads", "count");
    ("resilience.store_bytes.journal", "bytes");
    ("resilience.store_bytes.intake", "bytes");
    ("resilience.store_bytes.flight", "bytes");
    ("resilience.store_bytes.runs", "bytes");
    ("daemon.frame_decode_us", "us");
    ("daemon.requests", "count");
    ("daemon.refused", "count");
    ("daemon.disk_retries", "count");
    ("daemon.admit_to_settle_ms", "ms");
    ("daemon.resume_ms", "ms");
    ("obs.flight_records", "count");
    ("obs.trace_overhead_pct", "%");
    ("runtime.alloc_mb", "MB");
    ("host.calib_ms", "ms");
  ]

(* [measured] in the canonical order, with every missing layer at 0.
   A name outside the ledger is a bug in the workload. *)
let complete (measured : H.metric list) =
  List.iter
    (fun (x : H.metric) ->
      match List.assoc_opt x.H.name names with
      | Some u when u = x.H.unit_ -> ()
      | _ -> invalid_arg ("perfbench: not a ledger metric: " ^ x.H.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : H.metric) -> x.H.name = name) measured with
      | Some x -> x
      | None -> H.m name unit_ 0.0)
    names

(* The layers every workload runs: auction, mcf and graph counters and
   self times, the tracing overhead, allocation, and the probes.  Counts
   are per round; [alloc_per_round] is in bytes. *)
let common ~probes ~readings ~rounds ~router0 ~overhead_pct ~alloc_per_round =
  let per x = x /. float_of_int rounds in
  let routes, dijkstra, paths = Probes.router_per_round probes ~rounds ~before:router0 in
  let fc_hits =
    H.counter "poc_feascache_hits_total" -. float_of_int readings.Probes.probes
  in
  [
    H.m "auction.select_ms" "ms" (H.Spans.self_ms [ "vcg.select"; "Vcg.select_greedy" ]);
    H.m "auction.pivots_ms" "ms" (H.Spans.self_ms [ "vcg.pivots" ]);
    H.m "auction.candidate_evals" "1/round" (per (H.counter "poc_vcg_candidate_evals_total"));
    H.m "auction.pivots" "count" (per (H.counter "poc_vcg_pivot_recomputations_total"));
    H.m "auction.probe_hit_ratio" "ratio"
      (H.ratio
         (H.counter "poc_vcg_feasibility_cache_hits_total")
         (H.counter "poc_vcg_feasibility_cache_misses_total"));
    H.m "auction.feascache_hit_ratio" "ratio"
      (H.ratio fc_hits (H.counter "poc_feascache_misses_total"));
    H.m "mcf.routes" "1/round" routes;
    H.m "mcf.reroutes" "count" (per (H.counter "poc_router_reroutes_total"));
    H.m "mcf.paths" "1/round" paths;
    H.m "mcf.toggle_repair_ratio" "ratio"
      (H.ratio
         (H.counter "poc_router_toggle_repairs_total")
         (H.counter "poc_router_toggle_scratch_total"));
    H.m "graph.dijkstra" "1/round" dijkstra;
    H.m "obs.trace_overhead_pct" "%" overhead_pct;
    H.m "runtime.alloc_mb" "MB" (alloc_per_round /. 1e6);
  ]
  @ Probes.layers readings
