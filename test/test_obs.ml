(* Observability layer: spans, sinks, Chrome export, histograms,
   Prometheus/JSON export, and the two guarantees instrumentation makes
   to the rest of the repo — the disabled path allocates nothing, and
   tracing never perturbs journaled output. *)

module Trace = Poc_obs.Trace
module Flight = Poc_obs.Flight
module Metrics = Poc_obs.Metrics
module Log = Poc_obs.Log
module Clock = Poc_obs.Clock
module Planner = Poc_core.Planner
module Epochs = Poc_market.Epochs
module Fault = Poc_resilience.Fault
module Supervisor = Poc_resilience.Supervisor

(* --- a minimal JSON reader, enough to validate exporter output ---------- *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' ->
          Buffer.add_char buf '"';
          advance ();
          go ()
        | Some '\\' ->
          Buffer.add_char buf '\\';
          advance ();
          go ()
        | Some '/' ->
          Buffer.add_char buf '/';
          advance ();
          go ()
        | Some 'n' ->
          Buffer.add_char buf '\n';
          advance ();
          go ()
        | Some 't' ->
          Buffer.add_char buf '\t';
          advance ();
          go ()
        | Some 'r' ->
          Buffer.add_char buf '\r';
          advance ();
          go ()
        | Some 'b' ->
          Buffer.add_char buf '\b';
          advance ();
          go ()
        | Some 'f' ->
          Buffer.add_char buf '\012';
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail "bad \\u escape"
          in
          (* Test traces are ASCII; encode the BMP code point naively. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        JObj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        JObj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        JArr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        JArr (elements [])
      end
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | JObj fields -> List.assoc_opt name fields
  | _ -> None

let num_field name j =
  match obj_field name j with
  | Some (JNum f) -> f
  | _ -> Alcotest.failf "missing numeric field %S" name

let str_field name j =
  match obj_field name j with
  | Some (JStr s) -> s
  | _ -> Alcotest.failf "missing string field %S" name

(* --- clock and log ------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_us ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_us () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

let test_log_levels_and_laziness () =
  let calls = ref 0 in
  let msg () =
    incr calls;
    "boom"
  in
  Log.set_level None;
  Log.error msg;
  Log.debug msg;
  Alcotest.(check int) "silent by default" 0 !calls;
  Log.set_level (Some Log.Warn);
  Alcotest.(check bool) "warn on" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "info off" false (Log.enabled Log.Info);
  Log.info msg;
  Alcotest.(check int) "below-level closure never runs" 0 !calls;
  Log.set_level None;
  Alcotest.(check (option string))
    "round-trips names" (Some "debug")
    (Option.map Log.level_to_string (Log.level_of_string "debug"))

(* --- spans and sinks ----------------------------------------------------- *)

let with_ring f =
  let ring = Trace.Ring.create () in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) (fun () -> f ring)

let test_span_nesting_and_determinism () =
  let shape () =
    with_ring (fun ring ->
        let root = Trace.span "root" in
        Trace.add_attr root "k" (Trace.Int 7);
        let child = Trace.span "child" in
        Trace.event ~attrs:[ ("x", Trace.Bool true) ] "ping";
        Trace.finish child;
        let child2 = Trace.span "child2" in
        Trace.finish child2;
        Trace.finish root;
        List.map
          (fun (r : Trace.record) ->
            Printf.sprintf "%d<-%d@%d:%s" r.Trace.id r.Trace.parent
              r.Trace.depth r.Trace.name)
          (Trace.Ring.records ring))
  in
  let first = shape () in
  (* Finish order: children before the root. *)
  Alcotest.(check (list string))
    "ids, parents and depths"
    [ "2<-1@1:child"; "3<-1@1:child2"; "1<-0@0:root" ]
    first;
  Alcotest.(check (list string))
    "span ids are deterministic across sink installs" first (shape ())

let test_unfinished_spans_flushed_on_uninstall () =
  let ring = Trace.Ring.create () in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  let _root = Trace.span "interrupted" in
  let _child = Trace.span "inner" in
  Alcotest.(check int) "two open spans" 2 (Trace.open_spans ());
  Trace.set_sink None;
  Alcotest.(check int) "none open after uninstall" 0 (Trace.open_spans ());
  let names =
    List.map (fun (r : Trace.record) -> r.Trace.name) (Trace.Ring.records ring)
  in
  Alcotest.(check (list string))
    "partial spans still exported" [ "inner"; "interrupted" ] names

let test_ring_eviction () =
  let ring = Trace.Ring.create ~capacity:3 () in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  for i = 1 to 5 do
    Trace.finish (Trace.span (Printf.sprintf "s%d" i))
  done;
  Trace.set_sink None;
  Alcotest.(check (list string))
    "keeps the most recent, oldest first" [ "s3"; "s4"; "s5" ]
    (List.map (fun (r : Trace.record) -> r.Trace.name) (Trace.Ring.records ring));
  Alcotest.(check int) "eviction count" 2 (Trace.Ring.dropped ring)

let test_disabled_path_allocates_nothing () =
  Trace.set_sink None;
  let attr = Trace.Int 1 in
  (* warm up so any one-time allocation is outside the window *)
  let s0 = Trace.span "warm" in
  Trace.add_attr s0 "k" attr;
  Trace.event "warm";
  Trace.finish s0;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let s = Trace.span "hot" in
    Trace.add_attr s "k" attr;
    Trace.event "tick";
    Trace.finish s
  done;
  let delta = Gc.minor_words () -. before in
  (* 10k iterations; even one word per iteration would show as 10_000. *)
  if delta > 256.0 then
    Alcotest.failf "disabled tracing allocated %.0f minor words" delta

(* --- Chrome exporter ----------------------------------------------------- *)

let chrome_trace_of f =
  let chrome = Trace.Chrome.create () in
  Trace.set_sink (Some (Trace.Chrome.sink chrome));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) f;
  Trace.Chrome.to_json chrome

let test_chrome_export_is_valid_json () =
  let json_text =
    chrome_trace_of (fun () ->
        let root = Trace.span "epoch" in
        Trace.add_attr root "epoch" (Trace.Int 0);
        Trace.add_attr root "note" (Trace.Str "quote \" slash \\ tab \t");
        Trace.add_attr root "nan" (Trace.Float Float.nan);
        let child = Trace.span "auction" in
        Trace.event ~attrs:[ ("reason", Trace.Str "test") ] "fault";
        Trace.finish child;
        Trace.finish root)
  in
  let doc = parse_json json_text in
  Alcotest.(check (option string))
    "display unit" (Some "ms")
    (match obj_field "displayTimeUnit" doc with
    | Some (JStr s) -> Some s
    | _ -> None);
  let events =
    match obj_field "traceEvents" doc with
    | Some (JArr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let complete =
    List.filter (fun e -> str_field "ph" e = "X") events
  in
  let instants = List.filter (fun e -> str_field "ph" e = "i") events in
  Alcotest.(check int) "two complete spans" 2 (List.length complete);
  Alcotest.(check int) "one instant event" 1 (List.length instants);
  List.iter
    (fun e ->
      ignore (num_field "ts" e);
      ignore (num_field "dur" e);
      Alcotest.(check (float 0.0)) "pid" 1.0 (num_field "pid" e);
      Alcotest.(check (float 0.0)) "tid" 1.0 (num_field "tid" e))
    complete;
  let instant = List.hd instants in
  Alcotest.(check string) "instant name" "fault" (str_field "name" instant);
  Alcotest.(check string) "instant scope" "t" (str_field "s" instant);
  (match obj_field "args" instant with
  | Some args ->
    Alcotest.(check string) "event attr" "test" (str_field "reason" args)
  | None -> Alcotest.fail "instant args missing")

let test_chrome_span_ordering () =
  let json_text =
    chrome_trace_of (fun () ->
        let a = Trace.span "a" in
        let b = Trace.span "b" in
        Trace.finish b;
        let c = Trace.span "c" in
        let d = Trace.span "d" in
        Trace.finish d;
        Trace.finish c;
        Trace.finish a)
  in
  let events =
    match obj_field "traceEvents" (parse_json json_text) with
    | Some (JArr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let complete = List.filter (fun e -> str_field "ph" e = "X") events in
  (* Timestamps never decrease along the file ... *)
  let ts = List.map (num_field "ts") complete in
  Alcotest.(check bool) "timestamps ascend" true
    (List.for_all2 (fun a b -> a <= b) ts (List.tl ts @ [ infinity ]));
  (* ... and every child's parent appears earlier in the array, which
     is what keeps the viewer's nesting intact. *)
  let id_of e =
    match obj_field "args" e with
    | Some args -> int_of_float (num_field "span_id" args)
    | None -> Alcotest.fail "span args missing"
  in
  let parent_of e =
    match obj_field "args" e with
    | Some args -> int_of_float (num_field "parent_id" args)
    | None -> Alcotest.fail "span args missing"
  in
  List.iteri
    (fun i e ->
      let p = parent_of e in
      if p <> 0 then begin
        let seen = List.filteri (fun j _ -> j < i) complete in
        if not (List.exists (fun e' -> id_of e' = p) seen) then
          Alcotest.failf "span %d appears before its parent %d" (id_of e) p
      end)
    complete

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_bucket_boundaries () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram ~lo:1e-6 ~growth:2.0 ~buckets:30 reg "h" in
  let bounds = Metrics.Histogram.bounds h in
  Alcotest.(check int) "bucket count" 30 (Array.length bounds);
  Array.iteri
    (fun i b ->
      let expect = 1e-6 *. (2.0 ** float_of_int i) in
      if Float.abs (b -. expect) > 1e-15 *. expect then
        Alcotest.failf "bound %d: %.17g <> %.17g" i b expect)
    bounds;
  (* A value lands in the first bucket whose bound exceeds it. *)
  Metrics.Histogram.observe h 1.5e-6;
  (* between 2^0 and 2^1 *)
  Metrics.Histogram.observe h 0.5e-6;
  (* below the first bound *)
  Metrics.Histogram.observe h 1e9;
  (* beyond the last bound: overflow *)
  let counts = Metrics.Histogram.bucket_counts h in
  Alcotest.(check int) "counts include overflow slot" 31 (Array.length counts);
  Alcotest.(check int) "underflow in bucket 0" 1 counts.(0);
  Alcotest.(check int) "1.5us in bucket 1" 1 counts.(1);
  Alcotest.(check int) "giant value in overflow" 1 counts.(30)

let test_histogram_percentiles_known_inputs () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram ~lo:1e-6 ~growth:2.0 ~buckets:40 reg "lat" in
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 0.001
  done;
  for _ = 1 to 45 do
    Metrics.Histogram.observe h 0.01
  done;
  for _ = 1 to 5 do
    Metrics.Histogram.observe h 0.1
  done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1.0 (Metrics.Histogram.sum h);
  (* 0.001 lands under bound 2^10us = 1024us; 0.01 under 2^14us =
     16384us; 0.1 under 2^17us but clamped to the observed max. *)
  Alcotest.(check (float 1e-12)) "p50" 1.024e-3 (Metrics.Histogram.p50 h);
  Alcotest.(check (float 1e-12)) "p95" 1.6384e-2 (Metrics.Histogram.p95 h);
  Alcotest.(check (float 1e-12)) "p99 clamps to max" 0.1
    (Metrics.Histogram.p99 h);
  Alcotest.(check (float 1e-12)) "max" 0.1 (Metrics.Histogram.max_observed h);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan
       (Metrics.Histogram.p50 (Metrics.histogram ~lo:1e-6 reg "empty")))

let test_registry_idempotent_and_typed () =
  let reg = Metrics.create_registry () in
  let c1 = Metrics.counter reg "requests_total" in
  let c2 = Metrics.counter reg "requests_total" in
  Metrics.Counter.inc c1;
  Alcotest.(check (float 0.0)) "same instrument" 1.0 (Metrics.Counter.value c2);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Metrics: \"requests_total\" already registered as a different kind")
    (fun () -> ignore (Metrics.gauge reg "requests_total"));
  Alcotest.check_raises "bad name rejected"
    (Invalid_argument "Metrics: invalid metric name \"no spaces\"") (fun () ->
      ignore (Metrics.counter reg "no spaces"));
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.Counter.add: negative or NaN increment")
    (fun () -> Metrics.Counter.add c1 (-1.0))

let test_prometheus_exposition () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter ~help:"how many" reg "poc_widgets_total" in
  Metrics.Counter.add c 3.0;
  let g = Metrics.gauge reg "poc_temperature" in
  Metrics.Gauge.set g 21.5;
  let h = Metrics.histogram ~lo:1e-3 ~growth:10.0 ~buckets:4 reg "poc_lat" in
  Metrics.Histogram.observe h 0.002;
  Metrics.Histogram.observe h 0.002;
  Metrics.Histogram.observe h 0.5;
  let text = Metrics.to_prometheus reg in
  let expect_lines =
    [ "# HELP poc_widgets_total how many"; "# TYPE poc_widgets_total counter";
      "poc_widgets_total 3"; "# TYPE poc_temperature gauge";
      "poc_temperature 21.5"; "# TYPE poc_lat histogram";
      "poc_lat_bucket{le=\"0.01\"} 2"; "poc_lat_bucket{le=\"1\"} 3";
      "poc_lat_bucket{le=\"+Inf\"} 3"; "poc_lat_sum 0.504"; "poc_lat_count 3"
    ]
  in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun want ->
      if not (List.mem want lines) then
        Alcotest.failf "missing exposition line %S in:\n%s" want text)
    expect_lines

let test_metrics_json_snapshot () =
  let reg = Metrics.create_registry () in
  Metrics.Counter.add (Metrics.counter reg "jobs_total") 4.0;
  Metrics.Gauge.set (Metrics.gauge reg "depth") 2.0;
  let h = Metrics.histogram ~lo:1e-6 ~growth:2.0 reg "t" in
  Metrics.Histogram.observe h 0.001;
  let doc = parse_json (Metrics.to_json reg) in
  (match obj_field "counters" doc with
  | Some counters ->
    Alcotest.(check (float 0.0)) "counter value" 4.0 (num_field "jobs_total" counters)
  | None -> Alcotest.fail "counters section missing");
  match obj_field "histograms" doc with
  | Some (JObj [ ("t", hist) ]) ->
    Alcotest.(check (float 0.0)) "count" 1.0 (num_field "count" hist);
    (* one observation: the bucket bound clamps to the observed max *)
    Alcotest.(check (float 1e-12)) "p50" 1e-3 (num_field "p50" hist)
  | _ -> Alcotest.fail "histograms section malformed"

(* --- end-to-end: instrumented supervised run ----------------------------- *)

let plan () = Lazy.force Fixtures.small_plan

let chaos_schedule (plan : Planner.plan) =
  let wan = plan.Planner.wan in
  let biggest =
    match Poc_topology.Wan.bps_by_size wan with b :: _ -> b | [] -> 0
  in
  let n_bps = Array.length wan.Poc_topology.Wan.bps in
  let specs =
    [
      Fault.Bp_bankruptcy { at_epoch = 3; bp = biggest };
      Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 };
    ]
    @ List.init n_bps (fun bp ->
          Fault.Capacity_recall { at_epoch = 5; bp; fraction = 1.0; duration = 1 })
  in
  match Fault.compile wan ~seed:2020 specs with
  | Ok s -> s
  | Error msg -> Alcotest.failf "chaos schedule failed to compile: %s" msg

let market = { Epochs.default_config with Epochs.epochs = 8; seed = 7 }

let test_supervised_run_trace_coverage () =
  let plan = plan () in
  let schedule = chaos_schedule plan in
  let report, records =
    with_ring (fun ring ->
        let report = Supervisor.run plan ~market ~schedule in
        (report, Trace.Ring.records ring))
  in
  let names =
    List.sort_uniq compare
      (List.map (fun (r : Trace.record) -> r.Trace.name) records)
  in
  List.iter
    (fun phase ->
      if not (List.mem phase names) then
        Alcotest.failf "no %S span in supervised trace (got: %s)" phase
          (String.concat ", " names))
    [ "epoch"; "drift"; "auction"; "routing"; "settlement" ];
  let epoch_spans =
    List.filter (fun (r : Trace.record) -> r.Trace.name = "epoch") records
  in
  Alcotest.(check int) "one span per epoch" market.Epochs.epochs
    (List.length epoch_spans);
  let all_events =
    List.concat_map (fun (r : Trace.record) -> r.Trace.events) records
  in
  let ev_names =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.Trace.ev_name) all_events)
  in
  Alcotest.(check bool) "injected faults appear as events" true
    (List.mem "fault" ev_names);
  Alcotest.(check bool) "this schedule engages the ladder" true
    (report.Supervisor.ladder_activations > 0);
  Alcotest.(check bool) "ladder engagements appear as events" true
    (List.mem "ladder" ev_names)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_journal_byte_identical_with_tracing () =
  let plan = plan () in
  let schedule = chaos_schedule plan in
  (* The store's files, sorted by name: an unbounded store holds the
     manifest and one segment. *)
  let journal_of f =
    let dir = Filename.temp_file "poc_obs_journal" "" in
    Sys.remove dir;
    let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
    Fun.protect
      ~finally:(fun () ->
        try
          List.iter (fun n -> Sys.remove (Filename.concat dir n)) (files ());
          Sys.rmdir dir
        with Sys_error _ -> ())
      (fun () ->
        f dir;
        String.concat ""
          (List.map (fun n -> read_file (Filename.concat dir n)) (files ())))
  in
  let untraced =
    journal_of (fun path ->
        ignore (Supervisor.run plan ~journal:path ~market ~schedule))
  in
  let traced =
    journal_of (fun path ->
        with_ring (fun _ring ->
            ignore (Supervisor.run plan ~journal:path ~market ~schedule)))
  in
  Alcotest.(check bool) "journal bytes unchanged by tracing" true
    (String.equal untraced traced);
  Alcotest.(check bool) "journal is non-trivial" true
    (String.length untraced > 100)

(* --- Atomic instruments under domain contention ------------------------ *)

(* [domains] raw Domain.spawn hammering one instrument concurrently;
   with the old plain-ref representation these tests lose increments
   almost every run. *)
let hammer ~domains ~iters f =
  let handles = List.init domains (fun d -> Domain.spawn (fun () -> f d iters)) in
  List.iter Domain.join handles

let test_counter_no_lost_increments () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg "hammer_counter_total" in
  let domains = 2 and iters = 50_000 in
  hammer ~domains ~iters (fun _ n ->
      for _ = 1 to n do
        Metrics.Counter.inc c
      done);
  Alcotest.(check (float 0.0))
    "every increment lands"
    (float_of_int (domains * iters))
    (Metrics.Counter.value c);
  (* Counter.add races too. *)
  hammer ~domains:4 ~iters:10_000 (fun _ n ->
      for _ = 1 to n do
        Metrics.Counter.add c 0.5
      done);
  Alcotest.(check (float 0.0))
    "fractional adds land"
    (float_of_int (domains * iters) +. (4.0 *. 10_000.0 *. 0.5))
    (Metrics.Counter.value c)

let test_histogram_no_lost_observations () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram ~lo:1e-3 ~growth:2.0 ~buckets:20 reg "hammer_hist" in
  let domains = 2 and iters = 25_000 in
  (* Each domain observes a distinct constant, so per-bucket counts are
     predictable as well as the total. *)
  hammer ~domains ~iters (fun d n ->
      let v = 0.01 *. float_of_int (1 + d) in
      for _ = 1 to n do
        Metrics.Histogram.observe h v
      done);
  Alcotest.(check int) "count" (domains * iters) (Metrics.Histogram.count h);
  let expect_sum = float_of_int iters *. (0.01 +. 0.02) in
  Alcotest.(check (float 1e-6)) "sum" expect_sum (Metrics.Histogram.sum h);
  Alcotest.(check (float 0.0)) "max" 0.02 (Metrics.Histogram.max_observed h);
  let total_buckets =
    Array.fold_left ( + ) 0 (Metrics.Histogram.bucket_counts h)
  in
  Alcotest.(check int) "bucket counts conserve" (domains * iters) total_buckets

let test_gauge_add_no_lost_updates () =
  let reg = Metrics.create_registry () in
  let g = Metrics.gauge reg "hammer_gauge" in
  hammer ~domains:2 ~iters:30_000 (fun d n ->
      let delta = if d = 0 then 1.0 else -1.0 in
      for _ = 1 to n do
        Metrics.Gauge.add g delta
      done);
  Alcotest.(check (float 0.0)) "adds cancel exactly" 0.0 (Metrics.Gauge.value g)

(* --- Flight recorder ring ----------------------------------------------- *)

(* A deterministic kind per operation code, covering every constructor,
   so the qcheck property can recompute what the ring should hold. *)
let flight_kind_of_int i =
  match i mod 5 with
  | 0 -> Flight.Span_open { name = Printf.sprintf "phase%d" (i mod 7) }
  | 1 ->
    Flight.Span_close
      { name = Printf.sprintf "phase%d" (i mod 7); dur_us = 1.5 *. float_of_int i }
  | 2 -> Flight.Event { name = "ev"; detail = Printf.sprintf "detail %d" i }
  | 3 -> Flight.Incident { incident = "fault"; detail = Printf.sprintf "f%d" i }
  | _ -> Flight.Metric { name = "m"; delta = float_of_int i /. 3.0 }

let flight_shape (r : Flight.record) = (r.Flight.seq, r.Flight.epoch, r.Flight.kind)

let qcheck_flight_ring_replay =
  QCheck.Test.make ~name:"flight ring replays the newest records in order"
    ~count:300
    QCheck.(pair (int_range 1 12) (small_list small_int))
    (fun (capacity, ops) ->
      let t = Flight.create ~capacity () in
      List.iteri
        (fun i op ->
          Flight.emit t ~ts_us:(float_of_int i) ~epoch:(op mod 4) ~phase:"p"
            (flight_kind_of_int op))
        ops;
      let n = List.length ops in
      let kept = min n capacity in
      if Flight.seq t <> n then
        QCheck.Test.fail_reportf "seq %d after %d emissions" (Flight.seq t) n;
      if Flight.stored t <> kept || Flight.dropped t <> n - kept then
        QCheck.Test.fail_reportf "stored %d / dropped %d after %d emissions"
          (Flight.stored t) (Flight.dropped t) n;
      let expect =
        List.filteri (fun i _ -> i >= n - kept) ops
        |> List.mapi (fun j op -> (n - kept + j, op mod 4, flight_kind_of_int op))
      in
      if List.map flight_shape (Flight.records t) <> expect then
        QCheck.Test.fail_report "ring contents diverge from the newest suffix";
      (* and the full on-disk image round-trips exactly those records *)
      match Flight.decode_image (Flight.image t) with
      | Error e -> QCheck.Test.fail_reportf "image does not decode: %s" e
      | Ok img ->
        img.Flight.img_capacity = capacity
        && (not img.Flight.img_torn)
        && List.map flight_shape img.Flight.img_records = expect)

let test_flight_drain_appends_compose () =
  let t = Flight.create ~capacity:8 () in
  let file = Buffer.create 256 in
  Buffer.add_string file (Flight.image t);
  let emit_to t i =
    Flight.emit t ~ts_us:(float_of_int i) ~epoch:i ~phase:"epoch"
      (Flight.Event { name = "e"; detail = string_of_int i })
  in
  let emit = emit_to t in
  let flush () =
    match Flight.drain t with
    | `Empty -> ()
    | `Append b -> Buffer.add_string file b
    | `Wrapped ->
      Buffer.clear file;
      Buffer.add_string file (Flight.image t)
  in
  emit 0;
  emit 1;
  flush ();
  emit 2;
  flush ();
  flush ();
  (* image + incremental appends is itself a valid image *)
  (match Flight.decode_image (Buffer.contents file) with
  | Ok img ->
    Alcotest.(check int) "three records on disk" 3
      (List.length img.Flight.img_records);
    Alcotest.(check bool) "composed image is clean" false img.Flight.img_torn
  | Error e -> Alcotest.failf "composed image must decode: %s" e);
  (* wrapping past an undrained backlog demands a rewrite *)
  for i = 3 to 20 do
    emit i
  done;
  (match Flight.drain t with
  | `Wrapped -> ()
  | `Empty | `Append _ -> Alcotest.fail "a wrapped backlog must demand a rewrite");
  Alcotest.(check int) "pending resets after a wrap" 0 (Flight.pending_bytes t);
  (* a torn tail loses exactly the damaged frame, never the history *)
  let img = Flight.image t in
  let cut = String.sub img 0 (String.length img - 3) in
  match Flight.decode_image cut with
  | Error e -> Alcotest.failf "a torn image must still decode: %s" e
  | Ok d ->
    Alcotest.(check bool) "tear detected" true d.Flight.img_torn;
    Alcotest.(check int) "only the last frame lost" 7
      (List.length d.Flight.img_records);
    let keep = Flight.valid_prefix cut in
    Alcotest.(check bool) "valid prefix strictly inside the cut" true
      (keep > 0 && keep < String.length cut);
    (match Flight.decode_image (String.sub cut 0 keep) with
    | Ok d' -> Alcotest.(check bool) "prefix decodes clean" false d'.Flight.img_torn
    | Error e -> Alcotest.failf "the valid prefix must decode: %s" e);
    (* reopening keeps the readable records byte for byte, and the
       newest records only when the capacity is smaller *)
    let newest = List.nth d.Flight.img_records 6 in
    (match Flight.reopen ~capacity:8 cut with
    | Error e -> Alcotest.failf "a torn image must reopen: %s" e
    | Ok (_, `Rewrite) ->
      Alcotest.fail "an image of the same capacity continues in place"
    | Ok (r, `Append_at at) ->
      Alcotest.(check int) "it continues at the valid prefix" keep at;
      Alcotest.(check string) "reopened image is the valid prefix"
        (String.sub cut 0 keep) (Flight.image r);
      Alcotest.(check bool) "same records" true
        (Flight.records r = d.Flight.img_records);
      Alcotest.(check int) "seq continues after the newest record"
        (newest.Flight.seq + 1) (Flight.seq r);
      Alcotest.(check int) "reopened records count as drained" 0
        (Flight.pending_bytes r);
      emit_to r 21;
      Alcotest.(check int) "a new record gets the next seq"
        (newest.Flight.seq + 1)
        (List.nth (Flight.records r) 7).Flight.seq);
    match Flight.reopen ~capacity:4 cut with
    | Error e -> Alcotest.failf "a torn image must reopen: %s" e
    | Ok (_, `Append_at _) ->
      Alcotest.fail "an image of another capacity must be rewritten"
    | Ok (r, `Rewrite) ->
      Alcotest.(check bool) "a smaller ring keeps the newest" true
        (Flight.records r = List.filteri (fun i _ -> i >= 3) d.Flight.img_records)

(* Damaged flight images: a tear, a flipped byte, and checksummed
   frames whose payload fails to decode (an unknown tag, trailing
   bytes, a string running past the payload), each with and without
   whole records after it.  [reopen] reads only each record's seq, and
   must stop at the same frame as the full decode with the same
   verdict. *)
let test_flight_reopen_agrees_with_decode () =
  let module Codec = Poc_util.Codec in
  let t = Flight.create ~capacity:16 () in
  for i = 0 to 7 do
    Flight.emit t ~ts_us:(float_of_int i) ~epoch:i ~phase:"epoch"
      (flight_kind_of_int i)
  done;
  let img = Flight.image t in
  let len = String.length img in
  let bad_payload tail =
    let w = Codec.writer () in
    tail w;
    Codec.frame (Codec.contents w)
  in
  let record_head w tag =
    Codec.put_u8 w tag;
    Codec.put_int w 99;
    Codec.put_f64 w 1.0;
    Codec.put_int w 0;
    Codec.put_string w "epoch"
  in
  let unknown_tag = bad_payload (fun w -> record_head w 9; Codec.put_string w "x") in
  let trailing =
    bad_payload (fun w ->
        record_head w 0;
        Codec.put_string w "x";
        Codec.put_u8 w 0)
  in
  let long_string =
    bad_payload (fun w ->
        record_head w 2;
        Codec.put_u32 w 1000;
        Codec.put_u8 w 0)
  in
  let flip at =
    let b = Bytes.of_string img in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
    Bytes.to_string b
  in
  (* The image's last record frame, appended after a bad frame so that
     whole records follow the damage. *)
  let last_frame =
    let rec walk pos prev =
      match Codec.next_frame img ~pos with
      | Codec.Frame { next; _ } -> walk next pos
      | Codec.End | Codec.Torn -> prev
    in
    let at = walk 0 0 in
    String.sub img at (len - at)
  in
  let fixtures =
    [
      ("clean", img);
      ("torn tail", String.sub img 0 (len - 3));
      ("flipped interior byte", flip (len / 2));
      ("flipped last byte", flip (len - 1));
      ("unknown tag, then a record", img ^ unknown_tag ^ last_frame);
      ("unknown tag at the end", img ^ unknown_tag);
      ("trailing bytes, then a record", img ^ trailing ^ last_frame);
      ("string past the payload", img ^ long_string);
      ("garbage tail", img ^ "\001\002\003");
    ]
  in
  List.iter
    (fun (name, data) ->
      match (Flight.decode_image data, Flight.reopen ~capacity:16 data) with
      | Ok d, Ok (r, `Append_at valid) ->
        Alcotest.(check int) (name ^ ": frame count") d.Flight.img_frames
          (Flight.stored r);
        Alcotest.(check bool) (name ^ ": same records") true
          (Flight.records r = d.Flight.img_records);
        Alcotest.(check int) (name ^ ": stops where the decode does")
          (Flight.valid_prefix data) valid;
        Alcotest.(check bool) (name ^ ": same verdict") d.Flight.img_torn
          (valid < String.length data)
      | Ok _, Ok (_, `Rewrite) -> Alcotest.failf "%s: same capacity must append" name
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" name e)
    fixtures

(* --- Prometheus exposition conformance ----------------------------------- *)

let starts_with prefix l = String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let test_prometheus_conformance () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter ~help:"total widgets" reg "poc_conf_total" in
  Metrics.Counter.add c 2.0;
  let nasty = "a\\b\"c\nd" in
  let cl =
    Metrics.counter ~help:"total widgets" ~labels:[ ("site", nasty) ] reg
      "poc_conf_total"
  in
  Metrics.Counter.inc cl;
  let g = Metrics.gauge ~help:"level" reg "poc_conf_level" in
  Metrics.Gauge.set g (-3.5);
  let h =
    Metrics.histogram ~help:"lat" ~lo:1e-3 ~growth:10.0 ~buckets:3 reg
      "poc_conf_seconds"
  in
  List.iter (Metrics.Histogram.observe h) [ 0.002; 0.05; 123.0 ];
  let hl =
    Metrics.histogram ~help:"lat" ~labels:[ ("cell", "crash|torn") ] ~lo:1e-3
      ~growth:10.0 ~buckets:3 reg "poc_conf_seconds"
  in
  Metrics.Histogram.observe hl 0.004;
  let text = Metrics.to_prometheus reg in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let idx pred =
    let rec go i = function
      | [] -> -1
      | l :: _ when pred l -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 lines
  in
  let count pred = List.length (List.filter pred lines) in
  (* one # HELP and one # TYPE per family, HELP first, then TYPE, then
     every sample of the family contiguously — never interleaved *)
  List.iter
    (fun fam ->
      let help = "# HELP " ^ fam ^ " " and ty = "# TYPE " ^ fam ^ " " in
      Alcotest.(check int) (fam ^ ": one HELP") 1 (count (starts_with help));
      Alcotest.(check int) (fam ^ ": one TYPE") 1 (count (starts_with ty));
      let is_sample l =
        (not (starts_with "#" l))
        && (starts_with (fam ^ " ") l || starts_with (fam ^ "{") l
           || starts_with (fam ^ "_bucket") l
           || starts_with (fam ^ "_sum") l
           || starts_with (fam ^ "_count") l)
      in
      let hi = idx (starts_with help) and ti = idx (starts_with ty) in
      Alcotest.(check bool) (fam ^ ": HELP precedes TYPE") true (hi < ti);
      let sample_idx =
        List.mapi (fun i l -> (i, l)) lines
        |> List.filter (fun (_, l) -> is_sample l)
        |> List.map fst
      in
      Alcotest.(check bool) (fam ^ ": has samples") true (sample_idx <> []);
      List.iter
        (fun i -> Alcotest.(check bool) (fam ^ ": TYPE precedes samples") true (ti < i))
        sample_idx;
      let lo = List.hd sample_idx and hi_s = List.nth sample_idx (List.length sample_idx - 1) in
      Alcotest.(check int)
        (fam ^ ": samples are contiguous")
        (List.length sample_idx)
        (hi_s - lo + 1))
    [ "poc_conf_level"; "poc_conf_seconds"; "poc_conf_total" ];
  (* families are emitted in sorted order *)
  let ti f = idx (starts_with ("# TYPE " ^ f ^ " ")) in
  Alcotest.(check bool) "families sorted" true
    (ti "poc_conf_level" < ti "poc_conf_seconds"
    && ti "poc_conf_seconds" < ti "poc_conf_total");
  (* label values escape backslash, quote, and newline *)
  Alcotest.(check bool) "label escaping" true
    (List.mem "poc_conf_total{site=\"a\\\\b\\\"c\\nd\"} 1" lines);
  (* unlabeled buckets: cumulative, non-decreasing, +Inf-terminated *)
  let bucket_counts prefix =
    List.filter (starts_with prefix) lines
    |> List.map (fun l ->
           match String.rindex_opt l ' ' with
           | Some i ->
             ( l,
               float_of_string
                 (String.sub l (i + 1) (String.length l - i - 1)) )
           | None -> Alcotest.failf "malformed sample %S" l)
  in
  let check_buckets prefix total =
    let buckets = bucket_counts prefix in
    Alcotest.(check bool) (prefix ^ ": at least +Inf") true (buckets <> []);
    let rec cumulative prev = function
      | [] -> ()
      | (l, v) :: tl ->
        Alcotest.(check bool) ("non-decreasing at " ^ l) true (v >= prev);
        cumulative v tl
    in
    cumulative 0.0 buckets;
    let last, last_v = List.nth buckets (List.length buckets - 1) in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (prefix ^ ": terminated by +Inf") true
      (contains last "le=\"+Inf\"");
    Alcotest.(check (float 0.0)) (prefix ^ ": +Inf equals count") total last_v
  in
  check_buckets "poc_conf_seconds_bucket{le=" 3.0;
  check_buckets "poc_conf_seconds_bucket{cell=\"crash|torn\"" 1.0;
  (* the labeled family still emits exactly one sum and count per series *)
  Alcotest.(check int) "two sum lines (one per series)" 2
    (count (starts_with "poc_conf_seconds_sum"));
  Alcotest.(check int) "two count lines (one per series)" 2
    (count (starts_with "poc_conf_seconds_count"))

(* Both epoch loops time their phases through [Phase.run]: one trace
   span, one histogram observation and, with a ring attached, a flushed
   open before the body and a close carrying the duration after it. *)
let test_phase_closes_span_on_raise () =
  let h =
    Metrics.histogram (Metrics.create_registry ()) "poc_test_raise_seconds"
  in
  let traced = Trace.Ring.create () in
  Trace.set_sink (Some (Trace.Ring.sink traced));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let outer = Trace.span "epoch" in
      (match
         Poc_obs.Phase.run ~flight:None ~epoch:1 h "auction" (fun _ ->
             ignore (Trace.span "vcg.run" : Trace.span);
             raise Exit)
       with
      | () -> Alcotest.fail "the body's exception must propagate"
      | exception Exit -> ());
      Alcotest.(check int) "only the caller's span still open" 1
        (Trace.open_spans ());
      Trace.finish outer);
  Alcotest.(check (list string)) "phase and its child emitted"
    [ "vcg.run"; "auction"; "epoch" ]
    (List.map
       (fun (r : Trace.record) -> r.Trace.name)
       (Trace.Ring.records traced))

let test_phase_producer () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "poc_test_phase_seconds" in
  let ring = Flight.create () in
  let flushed_at = ref [] in
  let flush () = flushed_at := Flight.seq ring :: !flushed_at in
  let seen_by_body = ref (-1) in
  let traced = Trace.Ring.create () in
  Trace.set_sink (Some (Trace.Ring.sink traced));
  let v =
    Fun.protect
      ~finally:(fun () -> Trace.set_sink None)
      (fun () ->
        Poc_obs.Phase.run ~flight:(Some (ring, flush)) ~epoch:3 h "auction"
          (fun _ ->
            seen_by_body := Flight.seq ring;
            42))
  in
  Alcotest.(check int) "body's value returned" 42 v;
  Alcotest.(check (list int)) "one flush, right after the open" [ 1 ]
    !flushed_at;
  Alcotest.(check int) "open emitted before the body ran" 1 !seen_by_body;
  (match Flight.records ring with
  | [ o; c ] ->
    Alcotest.(check bool) "span open names the phase" true
      (o.Flight.kind = Flight.Span_open { name = "auction" });
    (match c.Flight.kind with
    | Flight.Span_close { name; dur_us } ->
      Alcotest.(check string) "close names the phase" "auction" name;
      Alcotest.(check bool) "close carries a duration" true (dur_us >= 0.0)
    | _ -> Alcotest.fail "second record must be a span close");
    List.iter
      (fun (r : Flight.record) ->
        Alcotest.(check int) "stamped with the epoch" 3 r.Flight.epoch;
        Alcotest.(check string) "stamped with the phase" "auction"
          r.Flight.phase)
      [ o; c ]
  | rs ->
    Alcotest.failf "expected open+close, got %d records" (List.length rs));
  Alcotest.(check int) "one histogram observation" 1
    (Metrics.Histogram.count h);
  Alcotest.(check (list string)) "one trace span" [ "auction" ]
    (List.map (fun (r : Trace.record) -> r.Trace.name)
       (Trace.Ring.records traced));
  Poc_obs.Phase.run ~flight:None ~epoch:4 h "drift" (fun _ -> ());
  Alcotest.(check int) "no ring attached: no records" 2 (Flight.seq ring);
  Alcotest.(check int) "still observed" 2 (Metrics.Histogram.count h)

let suite =
  [
    Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "log levels gate lazily" `Quick
      test_log_levels_and_laziness;
    Alcotest.test_case "span nesting and deterministic ids" `Quick
      test_span_nesting_and_determinism;
    Alcotest.test_case "uninstall flushes open spans" `Quick
      test_unfinished_spans_flushed_on_uninstall;
    Alcotest.test_case "ring buffer evicts oldest" `Quick test_ring_eviction;
    Alcotest.test_case "disabled tracing allocates nothing" `Quick
      test_disabled_path_allocates_nothing;
    Alcotest.test_case "chrome export is valid JSON" `Quick
      test_chrome_export_is_valid_json;
    Alcotest.test_case "chrome spans are ordered parents-first" `Quick
      test_chrome_span_ordering;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "histogram percentiles on known inputs" `Quick
      test_histogram_percentiles_known_inputs;
    Alcotest.test_case "registry is idempotent and typed" `Quick
      test_registry_idempotent_and_typed;
    Alcotest.test_case "prometheus exposition format" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "metrics JSON snapshot" `Quick test_metrics_json_snapshot;
    Alcotest.test_case "counter loses no increments under domains" `Quick
      test_counter_no_lost_increments;
    Alcotest.test_case "histogram loses no observations under domains" `Quick
      test_histogram_no_lost_observations;
    Alcotest.test_case "gauge add loses no updates under domains" `Quick
      test_gauge_add_no_lost_updates;
    Alcotest.test_case "supervised run trace covers every phase" `Slow
      test_supervised_run_trace_coverage;
    Alcotest.test_case "journal byte-identical with tracing on" `Slow
      test_journal_byte_identical_with_tracing;
    QCheck_alcotest.to_alcotest qcheck_flight_ring_replay;
    Alcotest.test_case "flight drains compose into valid images" `Quick
      test_flight_drain_appends_compose;
    Alcotest.test_case "flight reopen agrees with the full decode" `Quick
      test_flight_reopen_agrees_with_decode;
    Alcotest.test_case "prometheus exposition conformance" `Quick
      test_prometheus_conformance;
    Alcotest.test_case "phase producer: span, histogram, flight pair" `Quick
      test_phase_producer;
    Alcotest.test_case "phase closes its span when the body raises" `Quick
      test_phase_closes_span_on_raise;
  ]
