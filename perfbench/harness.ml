(* Timing, statistics, the host probe, the span ledger and the result
   line shared by the three workloads.

   Every figure here is taken from outside the library: wall-clock
   samples around public calls, deltas of the counters and histograms
   the program already exports through [Poc_obs.Metrics], and self
   times of the spans it already opens under a [Poc_obs.Trace] sink. *)

module Metrics = Poc_obs.Metrics
module Trace = Poc_obs.Trace

(* Nanosecond monotonic clock: gettimeofday's microsecond steps would
   quantize the microsecond-scale samples (bids, toggles) into a few
   repeated values. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- exact per-operation samples -------------------------------------- *)

(* Quantiles come from these exact samples, never from the metrics
   histograms, whose buckets are about 19% wide.  They are kept in
   order, unboxed, so a run's memory does not grow with its length by
   much more than 8 bytes a sample. *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 64 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let xs = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 xs 0 s.n;
    s.xs <- xs
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.xs 0 s.n

let sorted s =
  let a = to_array s in
  Array.sort compare a;
  a

let median s =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least a share [q] of all
   samples at or below it. *)
let quantile s q =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let minimum s = quantile s 0.0

(* The fastest window of a run: the least mean of [k] consecutive
   samples, each sample one unit of identical work, so that every
   window holds the same work; [k] is chosen so that a window lasts a
   second or more.  On the shared 2-vCPU reference host the speed
   drifts by a third over tens of seconds, so a run's median moves with
   the load of the minute it ran in; the least-disturbed window of a
   run repeats more closely.  A run too short for one window reads the
   mean of all its samples. *)
let fastest_window s ~k =
  let k = min k s.n in
  if k = 0 then nan
  else begin
    let a = to_array s in
    let sum = ref 0.0 in
    for i = 0 to k - 1 do
      sum := !sum +. a.(i)
    done;
    let best = ref !sum in
    for i = k to s.n - 1 do
      sum := !sum +. a.(i) -. a.(i - k);
      best := Float.min !best !sum
    done;
    !best /. float_of_int k
  end

(* Mean seconds per call of a call too short to time alone: repeat it
   for 2 ms (at least once). *)
let per_call f =
  let t0 = now () in
  let calls = ref 0 in
  while !calls = 0 || now () -. t0 < 0.002 do
    f ();
    incr calls
  done;
  (now () -. t0) /. float_of_int !calls

(* One set-up, timed into [times] after a full collection, so no
   earlier garbage is charged to it. *)
let set_up times f =
  Gc.full_major ();
  let r, dt = time f in
  add times dt;
  r

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* --- host probe --------------------------------------------------------- *)

(* A fixed CPU loop that depends on nothing in the program.  Timed in
   every round beside the workload, it tells a slow host from a slow
   change; it never rescales a metric. *)
let calib_loop () =
  let x = ref 1 in
  for i = 1 to 4_000_000 do
    x := ((!x * 1103515245) + i) land 0x3FFF_FFFF
  done;
  Sys.opaque_identity !x

let calib_expected = calib_loop ()

(* --- process and program readings -------------------------------------- *)

(* VmHWM of this process, in MB; 0 where /proc is missing. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             let v = String.trim v in
             let kb = String.sub v 0 (String.index v ' ') in
             Some (float_of_string kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

(* Registering an existing name returns the library's own instrument. *)
let counter name = Metrics.Counter.value (Metrics.counter Metrics.default name)

let gauge name = Metrics.Gauge.value (Metrics.gauge Metrics.default name)

(* Exact mean of a histogram's observations (sum / count), in ms. *)
let hist_mean_ms name =
  let h = Metrics.histogram Metrics.default name in
  let n = Metrics.Histogram.count h in
  if n = 0 then 0.0 else 1000.0 *. Metrics.Histogram.sum h /. float_of_int n

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

(* --- span ledger ------------------------------------------------------- *)

(* Spans are kept in memory while a round runs under the sink; when the
   round ends its self times (duration minus the part covered by
   direct children, which never overlap: spans nest on one stack) are
   folded into per-name totals.  The first traced round is also kept
   for a Chrome trace-event file. *)
module Spans = struct
  type stat = { mutable self_us : float; mutable count : int }

  let stats : (string, stat) Hashtbl.t = Hashtbl.create 64

  let batch : Trace.record list ref = ref []

  let chrome = Trace.Chrome.create ()

  let chrome_sink = Trace.Chrome.sink chrome

  let kept = ref false

  let sink =
    { Trace.emit = (fun r -> batch := r :: !batch); flush = (fun () -> ()) }

  let start () =
    batch := [];
    Trace.set_sink (Some sink)

  let dur (r : Trace.record) = r.Trace.end_us -. r.Trace.start_us

  let stop () =
    Trace.set_sink None;
    let recs = !batch in
    batch := [];
    let covered = Hashtbl.create 256 in
    List.iter
      (fun (r : Trace.record) ->
        if r.Trace.parent <> 0 then
          Hashtbl.replace covered r.Trace.parent
            (dur r
            +. Option.value ~default:0.0 (Hashtbl.find_opt covered r.Trace.parent)))
      recs;
    List.iter
      (fun (r : Trace.record) ->
        let self =
          dur r -. Option.value ~default:0.0 (Hashtbl.find_opt covered r.Trace.id)
        in
        match Hashtbl.find_opt stats r.Trace.name with
        | Some s ->
          s.self_us <- s.self_us +. self;
          s.count <- s.count + 1
        | None -> Hashtbl.add stats r.Trace.name { self_us = self; count = 1 })
      recs;
    if not !kept then begin
      kept := true;
      List.iter chrome_sink.Trace.emit (List.rev recs)
    end

  (* Mean self time per span of any of [names], in ms; 0 if none ran. *)
  let self_ms names =
    let us, n =
      List.fold_left
        (fun (us, n) name ->
          match Hashtbl.find_opt stats name with
          | Some s -> (us +. s.self_us, n + s.count)
          | None -> (us, n))
        (0.0, 0) names
    in
    if n = 0 then 0.0 else us /. float_of_int n /. 1000.0

  let write path = Trace.Chrome.write chrome path
end

(* --- the closed loop --------------------------------------------------- *)

(* Run [unit_] until [seconds] have passed, whole units only, at least
   two.  In a traced run every second unit runs under the span sink;
   the others run untraced, so the two interleave and the difference
   of their medians is the tracing overhead.  Returns the units run,
   how many of them ran untraced, and that overhead in percent. *)
let closed_loop ~seconds ~trace unit_ =
  let deadline = now () +. seconds in
  let units = ref 0 in
  let plain = samples () and traced = samples () in
  while !units < 2 || now () < deadline do
    let on = trace && !units mod 2 = 1 in
    if on then Spans.start ();
    let (), dt = time (fun () -> unit_ !units) in
    if on then Spans.stop ();
    add (if on then traced else plain) dt;
    incr units
  done;
  let overhead_pct =
    if traced.n = 0 then 0.0 else 100.0 *. ((median traced /. median plain) -. 1.0)
  in
  (!units, plain.n, overhead_pct)

(* Bytes the calling domain allocates inside [f], counted only while
   no sink is installed, so spans do not inflate the figure. *)
let allocating total f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  if not (Trace.enabled ()) then total := !total +. (Gc.allocated_bytes () -. a0);
  r

(* --- checks ------------------------------------------------------------ *)

type ledger = { mutable attempted : int; mutable failed : int }

let ledger () = { attempted = 0; failed = 0 }

(* One checked operation whose output was [ok]. *)
let record l ~ok what =
  l.attempted <- l.attempted + 1;
  if not ok then begin
    l.failed <- l.failed + 1;
    if l.failed <= 5 then Printf.eprintf "perfbench: failed check: %s\n%!" what
  end

(* --- the result line --------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; n : int }

let m ?(n = 0) name unit_ value = { name; unit_; value; n }

type result = {
  workload : string;
  jobs : int;
  seed : int;
  rounds : int;
  instance : string;  (** what the workload ran on, for readers *)
  e2e : metric list;  (** the metrics BENCHMARK.json gates, untraced *)
  detail : metric list;  (** per-operation figures printed for readers *)
  layers : metric list;  (** the per-layer ledger, traced runs *)
  checks : ledger;
}

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let print_metric (x : metric) =
  Printf.printf "  %-34s %16s %-6s%s\n" x.name (json_number x.value) x.unit_
    (if x.n > 0 then Printf.sprintf " n=%d" x.n else "")

let emit ~trace r =
  Printf.printf "%s seed=%d jobs=%d nproc=%d rounds=%d traced=%b (%s)\n"
    r.workload r.seed r.jobs
    (Domain.recommended_domain_count ())
    r.rounds trace r.instance;
  let shown = if trace then r.layers else r.e2e @ r.detail in
  List.iter print_metric shown;
  let c = r.checks in
  Printf.printf "  %-34s %16s %-6s (%d of %d operations)\n" "failed_share"
    (json_number
       (if c.attempted = 0 then 0.0
        else float_of_int c.failed /. float_of_int c.attempted))
    "share" c.failed c.attempted;
  let gated = if trace then r.layers else r.e2e in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (c.failed = 0 && c.attempted > 0)
    c.attempted c.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.value) x.unit_)
          gated))
