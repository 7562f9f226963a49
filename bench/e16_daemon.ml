(* E16 (extension) — the market daemon's serving capacity: engine-level
   epochs/sec and request latency under a live bid stream, at domain
   pools of 1 and 4, on a healthy disk and on one that fails
   transiently (every Nth primitive op raises, the daemon's jittered
   backoff retries).  Exercises admission, the durable intake log, and
   the supervised step loop exactly as `poc-cli serve` drives them,
   minus the socket. *)

module Planner = Poc_core.Planner
module Acc = Poc_auction.Acceptability
module Epochs = Poc_market.Epochs
module Fault = Poc_resilience.Fault
module Disk = Poc_resilience.Disk
module Protocol = Poc_daemon.Protocol
module Engine = Poc_daemon.Engine

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    let rec go d =
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if Sys.is_directory p then go p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    in
    go dir
  end
  else if Sys.file_exists dir then Sys.remove dir

(* A disk whose primitive ops fail transiently: every [period]-th call
   raises [Sys_error] once.  The daemon retries with (near-zero-delay)
   backoff, so runs complete; the cost shows up as latency. *)
let flaky_disk ~period ~faults =
  let calls = ref 0 in
  let guard f =
    incr calls;
    if !calls mod period = 0 then begin
      incr faults;
      raise (Sys_error "bench: injected transient fault")
    end
    else f ()
  in
  let real = Disk.real_ops in
  let ops =
    {
      real with
      Disk.open_append = (fun p -> guard (fun () -> real.Disk.open_append p));
      Disk.open_trunc = (fun p -> guard (fun () -> real.Disk.open_trunc p));
      Disk.read_file = (fun p -> guard (fun () -> real.Disk.read_file p));
      Disk.rename = (fun a b -> guard (fun () -> real.Disk.rename a b));
    }
  in
  let policy =
    {
      Disk.default_retry_policy with
      Disk.retry_base_delay = 0.0002;
      retry_max_delay = 0.002;
    }
  in
  Engine.retrying_disk ~policy ~ops ()

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let idx =
      min (n - 1)
        (int_of_float (ceil (p *. float_of_int n)) - 1)
    in
    List.nth sorted (max 0 idx)

let req line =
  match Protocol.parse line with
  | Ok r -> r
  | Error msg -> failwith ("bad bench request: " ^ msg)

(* One serving session: [bids_per_epoch] live bids between epochs, the
   whole horizon stepped through EPOCH requests, then SHUTDOWN.
   Returns (epochs/sec, p99 bid latency, injected fault count). *)
let session plan ~market ~schedule ~jobs ~faulty =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_e16_%d_%b" jobs faulty)
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let faults = ref 0 in
      let disk =
        if faulty then flaky_disk ~period:3 ~faults
        else Engine.retrying_disk ()
      in
      let n_bps = Array.length plan.Planner.problem.Poc_auction.Vcg.bids in
      let bids_per_epoch = 4 in
      Poc_util.Pool.with_pool ~jobs (fun pool ->
          let engine =
            match
              Engine.create ?pool ~disk ~segment_bytes:65536
                ~store:(Filename.concat root "store")
                ~intake:(Filename.concat root "intake.log")
                plan ~market ~schedule
            with
            | Ok e -> e
            | Error r ->
              failwith
                ("engine create failed: " ^ Engine.Supervisor.refusal_to_string r)
          in
          let seq = ref 0 in
          let bid_lat = ref [] in
          let t0 = Unix.gettimeofday () in
          for epoch = 1 to market.Epochs.epochs do
            for i = 0 to bids_per_epoch - 1 do
              incr seq;
              let line =
                Printf.sprintf "BID %d %d %.4f %d" !seq
                  ((epoch + i) mod n_bps)
                  (0.9 +. (0.01 *. float_of_int ((!seq * 7) mod 20)))
                  (i mod 4)
              in
              let b0 = Unix.gettimeofday () in
              ignore (Engine.handle engine (req line));
              bid_lat := (Unix.gettimeofday () -. b0) :: !bid_lat
            done;
            ignore (Engine.handle engine (req "EPOCH 1"))
          done;
          let dt = Unix.gettimeofday () -. t0 in
          ignore (Engine.handle engine (req "SHUTDOWN"));
          ( float_of_int market.Epochs.epochs /. dt,
            percentile 0.99 !bid_lat,
            !faults )))

let run ~scale ~seed =
  Common.header "E16 — daemon serving capacity: epochs/sec and bid latency";
  Common.reset_metrics ();
  let config =
    match scale with
    | Common.Paper -> Common.plan_config ~scale ~seed ~rule:Acc.Handle_load
    | Common.Quick ->
      Planner.scaled_config ~sites:24 ~bps:6
        { Planner.default_config with Planner.seed; rule = Acc.Handle_load }
  in
  match Common.timed "plan" (fun () -> Planner.build config) with
  | Error msg -> Printf.printf "planning failed: %s\n" msg
  | Ok plan ->
    let market =
      { Epochs.default_config with Epochs.epochs = 10; seed = seed + 2 }
    in
    let schedule =
      match Fault.compile plan.Planner.wan ~seed:(seed + 3) [] with
      | Ok s -> s
      | Error msg -> failwith ("bad schedule: " ^ msg)
    in
    let rows =
      List.map
        (fun (jobs, faulty) ->
          let label =
            Printf.sprintf "jobs=%d %s" jobs
              (if faulty then "flaky disk" else "healthy disk")
          in
          let (eps, p99, faults), _ =
            Common.timed_s label (fun () ->
                session plan ~market ~schedule ~jobs ~faulty)
          in
          Printf.printf
            "  %-22s %6.2f epochs/s, p99 bid %7.3f ms, %d faults retried\n"
            label eps (p99 *. 1000.0) faults;
          Printf.sprintf
            "{\"jobs\":%d,\"faulty_disk\":%b,\"epochs_per_s\":%.3f,\"p99_bid_seconds\":%.6f,\"faults_injected\":%d}"
            jobs faulty eps p99 faults)
        [ (1, false); (4, false); (1, true); (4, true) ]
    in
    print_endline
      "expected shape: bid admission stays sub-millisecond (append +\n\
       fsync), the flaky disk costs only the retry backoff (never a\n\
       failed run), and jobs=4 pays off on multi-core hosts while\n\
       oversubscribing a single core.";
    Common.write_metrics_artifact
      ~extra:
        [ ("daemon_serving", Printf.sprintf "[%s]" (String.concat "," rows)) ]
      ~label:"e16" ()
