(* serve — the market daemon as `poc-cli serve` drives it, minus the
   socket: 4 runs of a 16-site / 4-BP plan under Constraint #1 in one
   Poc_daemon.Registry, fed binary-framed requests through
   Registry.dispatch at --jobs 2 (the serve default on a 2-core host),
   with the flight recorder on and journal segments small enough that
   every run rotates.  The only workload where resilience and daemon do
   work: journal, intake log, flight box, RUNS manifest, framing and
   admission, both as writes (bids, epochs) and as reads (resume).

   One cycle: a fresh plan and registry (the set-up); [epochs_per_cycle]
   epoch rounds, each giving every run [bids_per_epoch] BIDs (under the
   admission high-water mark of 64, so nothing is shed) and then one
   EPOCH; a graceful SHUTDOWN mid-horizon at a snapshot boundary; then
   as many Registry.create ~resume:true over that root as there were
   rounds.  Every cycle replays the same requests, so every cycle does
   the same work and writes the same store.

   The plan and the market are always seed 42's, as in fig2; the
   workload seed draws the bid stream (which BP, what factor). *)

module H = Harness
module Trace = Poc_obs.Trace
module Planner = Poc_core.Planner
module Acc = Poc_auction.Acceptability
module Epochs = Poc_market.Epochs
module Disk = Poc_resilience.Disk
module Protocol = Poc_daemon.Protocol
module Framing = Poc_daemon.Framing
module Engine = Poc_daemon.Engine
module Registry = Poc_daemon.Registry
module Prng = Poc_util.Prng
module Pool = Poc_util.Pool

let runs = 4

let jobs = 2

let bids_per_epoch = 48

(* The registry snapshots every 4 epochs; shutting down right after one
   makes the pre-shutdown epoch the one a resume comes back at. *)
let epochs_per_cycle = 12

let horizon = 16

let segment_bytes = 1024

let instance_seed = 42

(* --- durable-I/O counts ----------------------------------------------- *)

(* A counting passthrough under the daemon's own retry layer.  RUNS is
   appended with open_out_gen and each FLIGHT box opens its own real
   disk, so neither shows in these counts. *)
type io = { opens : int Atomic.t; renames : int Atomic.t; reads : int Atomic.t }

let io = { opens = Atomic.make 0; renames = Atomic.make 0; reads = Atomic.make 0 }

let disk_for ~run:_ =
  let real = Disk.real_ops in
  let ops =
    {
      real with
      Disk.open_append =
        (fun p ->
          Atomic.incr io.opens;
          real.Disk.open_append p);
      open_trunc =
        (fun p ->
          Atomic.incr io.opens;
          real.Disk.open_trunc p);
      read_file =
        (fun p ->
          Atomic.incr io.reads;
          real.Disk.read_file p);
      rename =
        (fun a b ->
          Atomic.incr io.renames;
          real.Disk.rename a b);
    }
  in
  Engine.retrying_disk ~ops ()

let rec fold_files f acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc n -> fold_files f acc (Filename.concat path n))
      acc (Sys.readdir path)
  else f acc path

(* Bytes on disk by kind: journal segments and manifest, intake logs,
   flight boxes, the root RUNS manifest. *)
let store_bytes root =
  fold_files
    (fun (j, i, f, r) path ->
      let size = float_of_int (Unix.stat path).Unix.st_size in
      match Filename.basename path with
      | "RUNS" -> (j, i, f, r +. size)
      | "FLIGHT" -> (j, i, f +. size, r)
      | "intake.log" -> (j, i +. size, f, r)
      | _ -> (j +. size, i, f, r))
    (0.0, 0.0, 0.0, 0.0) root

(* --- the request stream ------------------------------------------------ *)

(* Every BID of a cycle, pre-encoded on the client side: per epoch, per
   run, [bids_per_epoch] frames with strictly increasing seqs.  They
   come in pairs that cancel — BP b re-bids by f, then by 1/f — so each
   epoch clears the same auction whatever the seed, while admission,
   the intake log and the journal still see seed-drawn requests. *)
let make_bids ~seed ~n_bps =
  let rng = Prng.create ((seed * 31) + 7) in
  Array.init epochs_per_cycle (fun e ->
      Array.init runs (fun run ->
          let frames = Array.make bids_per_epoch "" in
          for pair = 0 to (bids_per_epoch / 2) - 1 do
            let bp = Prng.int rng n_bps and f = Prng.float_range rng 0.9 1.1 in
            List.iteri
              (fun k factor ->
                let i = (2 * pair) + k in
                frames.(i) <-
                  Framing.encode_msg
                    (Framing.Bid
                       {
                         run;
                         seq = (e * bids_per_epoch) + i + 1;
                         bp;
                         factor;
                         priority = Prng.int rng 4;
                       }))
              [ f; 1.0 /. f ]
          done;
          frames))

let terminal lines = match List.rev lines with last :: _ -> last | [] -> ""

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* One framed request the way the server handles it: decode the frame,
   dispatch the command, encode every reply line. *)
let request reg bytes =
  Trace.with_span "op.request" (fun () ->
      let p =
        Trace.with_span "Framing.decode_stream" (fun () ->
            Framing.decode_stream bytes ~pos:0)
      in
      match p.Framing.items with
      | [ Framing.Msg msg ] ->
        let run =
          match msg with
          | Framing.Bid { run; _ } | Framing.Epoch { run; _ } -> run
          | _ -> 0
        in
        let lines, _ =
          Trace.with_span "Registry.dispatch" (fun () ->
              Registry.dispatch reg (Framing.to_command msg))
        in
        let last = List.length lines - 1 in
        Trace.with_span "Framing.encode_reply" (fun () ->
            List.iteri
              (fun i line ->
                ignore (Framing.encode_reply { Framing.run; final = i = last; line } : string))
              lines);
        lines
      | _ -> [ "ERR undecodable frame" ])

let run ~seed ~seconds ~trace ~workdir =
  let checks = H.ledger () in
  let root = Filename.concat workdir "serve" in
  let market =
    { Epochs.default_config with Epochs.epochs = horizon; seed = instance_seed }
  in
  let config = { Fig2.config with Planner.rule = Acc.Handle_load } in
  Pool.with_pool ~jobs (fun pool ->
      let open_registry ?(resume = false) plan =
        match
          Registry.create ?pool ~flight:true ~segment_bytes ~disk_for ~resume ~runs
            ~max_runs:runs ~root plan ~market ()
        with
        | Ok r -> r
        | Error msg -> failwith ("perfbench serve: registry: " ^ msg)
      in
      let shutdown reg =
        terminal (fst (Registry.dispatch reg (Protocol.Scoped { run = 0; req = Protocol.Shutdown })))
      in
      (* Set-up: plan build plus opening every run.  One before the
         loop; an untraced run makes one more at the start of every
         cycle after the first (see fig2). *)
      let setup = H.samples () in
      let set_up () =
        H.rm_rf root;
        H.set_up setup (fun () ->
            match Planner.build ?pool config with
            | Error msg -> failwith ("perfbench serve: plan: " ^ msg)
            | Ok p -> (p, open_registry p))
      in
      let plan, reg = set_up () in
      ignore (shutdown reg : string);
      (* The layers Planner.build runs, timed apart on the same inputs. *)
      let generate = H.samples () and gravity = H.samples () in
      for _ = 1 to 5 do
        let _, _, generate_s, gravity_s = Fig2.generate_and_gravity () in
        H.add generate generate_s;
        H.add gravity gravity_s
      done;
      let graph = plan.Planner.wan.Poc_topology.Wan.graph in
      let m = Poc_graph.Graph.edge_count graph in
      let probes =
        Probes.create graph ~demands:plan.Planner.problem.Poc_auction.Vcg.demands
          ~edges:(List.init 8 (fun i -> i * m / 8))
      in
      let bids =
        make_bids ~seed ~n_bps:(Array.length plan.Planner.problem.Poc_auction.Vcg.bids)
      in
      let epoch_frames =
        Array.init runs (fun run -> Framing.encode_msg (Framing.Epoch { run; count = 1 }))
      in
      (* Each EPOCH's reply in the first cycle; later cycles must match. *)
      let epoch_replies = Hashtbl.create 64 in
      let bid = H.samples () and epoch = H.samples () and resume = H.samples () in
      let stores = ref [] and flight_records = H.samples () in
      let refused = ref 0 and alloc = ref 0.0 in
      let readings = Probes.readings () in
      Poc_obs.Metrics.reset Poc_obs.Metrics.default;
      let io0 = (Atomic.get io.opens, Atomic.get io.renames, Atomic.get io.reads) in
      let router0 = Probes.router_counts () in
      let cycle c =
        let plan, reg =
          if c > 0 && not trace then set_up ()
          else begin
            H.rm_rf root;
            (plan, open_registry plan)
          end
        in
        for e = 0 to epochs_per_cycle - 1 do
          for run = 0 to runs - 1 do
            Array.iter
              (fun frame ->
                let lines, dt =
                  H.allocating alloc (fun () -> H.time (fun () -> request reg frame))
                in
                H.add bid dt;
                let last = terminal lines in
                if starts_with "BUSY" last || starts_with "GONE" last then incr refused;
                H.record checks ~ok:(starts_with "OK" last)
                  (Printf.sprintf "BID reply %S" last))
              bids.(e).(run);
            let lines, dt =
              H.allocating alloc (fun () ->
                  H.time (fun () -> request reg epoch_frames.(run)))
            in
            H.add epoch dt;
            let last = terminal lines in
            if starts_with "BUSY" last || starts_with "GONE" last then incr refused;
            let text = String.concat "\n" lines in
            let same =
              match Hashtbl.find_opt epoch_replies (e, run) with
              | Some first -> String.equal first text
              | None ->
                Hashtbl.add epoch_replies (e, run) text;
                true
            in
            H.record checks
              ~ok:(starts_with "OK" last && same)
              (Printf.sprintf "EPOCH reply %S" text)
          done;
          Probes.run probes readings checks
        done;
        H.add flight_records (H.gauge "poc_daemon_flight_records");
        let bye = shutdown reg in
        H.record checks
          ~ok:(starts_with "BYE resumable" bye)
          (Printf.sprintf "SHUTDOWN reply %S" bye);
        stores := store_bytes root :: !stores;
        for _ = 1 to epochs_per_cycle do
          let reg, dt =
            H.time (fun () ->
                Trace.with_span "op.resume" (fun () ->
                    Trace.with_span "Registry.create" (fun () ->
                        open_registry ~resume:true plan)))
          in
          H.add resume dt;
          let infos = Registry.runs reg in
          H.record checks
            ~ok:
              (List.length infos = runs
              && List.for_all
                   (fun (i : Registry.run_info) ->
                     i.Registry.state = Registry.Serving
                     && i.Registry.next_epoch = Some (epochs_per_cycle + 1))
                   infos)
            "a run is not serving at its pre-shutdown epoch after resume";
          ignore (shutdown reg : string)
        done
      in
      let cycles, plain, overhead_pct = H.closed_loop ~seconds ~trace cycle in
      H.rm_rf root;
      let rounds = cycles * epochs_per_cycle in
      let per x = x /. float_of_int rounds in
      let o0, n0, r0 = io0 in
      let io_per a x = per (float_of_int (Atomic.get a - x)) in
      let same_store = List.for_all (fun s -> s = List.hd !stores) !stores in
      H.record checks ~ok:same_store "cycles wrote different stores";
      let sj, si, sf, sr = List.hd !stores in
      let layers =
        Layers.complete
          ([
             H.m ~n:generate.H.n "topology.generate_ms" "ms" (1000.0 *. H.median generate);
             H.m ~n:gravity.H.n "traffic.gravity_ms" "ms" (1000.0 *. H.median gravity);
             H.m "resilience.phase_drift_ms" "ms" (H.hist_mean_ms "poc_phase_drift_seconds");
             H.m "resilience.phase_auction_ms" "ms"
               (H.hist_mean_ms "poc_phase_auction_seconds");
             H.m "resilience.phase_routing_ms" "ms"
               (H.hist_mean_ms "poc_phase_routing_seconds");
             H.m "resilience.phase_settlement_ms" "ms"
               (H.hist_mean_ms "poc_phase_settlement_seconds");
             H.m "resilience.phase_journal_ms" "ms"
               (H.hist_mean_ms "poc_phase_journal_seconds");
             H.m "resilience.journal_bytes" "count" (per (H.counter "poc_journal_bytes_total"));
             H.m "resilience.journal_flushes" "count"
               (per (H.counter "poc_journal_flushes_total"));
             H.m "resilience.journal_rotations" "count"
               (per (H.counter "poc_journal_rotations_total"));
             H.m "resilience.disk_opens" "count" (io_per io.opens o0);
             H.m "resilience.disk_renames" "count" (io_per io.renames n0);
             H.m "resilience.disk_reads" "count" (io_per io.reads r0);
             H.m "resilience.store_bytes.journal" "bytes" sj;
             H.m "resilience.store_bytes.intake" "bytes" si;
             H.m "resilience.store_bytes.flight" "bytes" sf;
             H.m "resilience.store_bytes.runs" "bytes" sr;
             H.m "daemon.frame_decode_us" "us"
               (1000.0 *. H.Spans.self_ms [ "Framing.decode_stream" ]);
             H.m "daemon.requests" "count" (per (H.counter "poc_daemon_requests_total"));
             H.m "daemon.refused" "count"
               (per
                  (float_of_int !refused
                  +. H.counter "poc_daemon_shed_total"
                  +. H.counter "poc_daemon_duplicates_total"));
             H.m "daemon.disk_retries" "count"
               (per (H.counter "poc_daemon_disk_retries_total"));
             H.m "daemon.admit_to_settle_ms" "ms" (H.hist_mean_ms "poc_daemon_settle_seconds");
             H.m ~n:resume.H.n "daemon.resume_ms" "ms" (1000.0 *. H.median resume);
             H.m ~n:flight_records.H.n "obs.flight_records" "count"
               (H.median flight_records);
           ]
          @ Layers.common ~probes ~readings ~rounds ~router0 ~overhead_pct
              ~alloc_per_round:(!alloc /. float_of_int (plain * epochs_per_cycle)))
      in
      let us s = 1e6 *. s in
      {
        H.workload = "serve";
        jobs;
        seed;
        rounds;
        instance =
          Printf.sprintf "%d runs, %d offered links, %d routers, %d demands" runs
            (Poc_graph.Graph.edge_count graph)
            (Poc_graph.Graph.node_count graph)
            (List.length plan.Planner.problem.Poc_auction.Vcg.demands);
        e2e =
          [
            H.m ~n:setup.H.n "setup_s" "s" (H.minimum setup);
            H.m "peak_rss_mb" "MB" (H.peak_rss_mb ());
            H.m ~n:epoch.H.n "auction_ms" "ms" (1000.0 *. H.median epoch);
            H.m ~n:bid.H.n "query_us" "us" (us (H.median bid));
          ];
        detail =
          [
            H.m ~n:setup.H.n "setup_median_s" "s" (H.median setup);
            H.m ~n:epoch.H.n "epoch_ms" "ms" (1000.0 *. H.median epoch);
            H.m ~n:bid.H.n "bid_us" "us" (us (H.median bid));
            H.m ~n:bid.H.n "bid_p99_us" "us" (us (H.quantile bid 0.99));
            H.m ~n:resume.H.n "resume_ms" "ms" (1000.0 *. H.median resume);
            List.find (fun x -> x.H.name = "host.calib_ms") layers;
          ];
        layers;
        checks;
      })
