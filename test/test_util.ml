(* Unit and property tests for Poc_util: PRNG, statistics, numerics,
   table rendering. *)

module Prng = Poc_util.Prng
module Stats = Poc_util.Stats
module Numeric = Poc_util.Numeric
module Table = Poc_util.Table

let check_float = Alcotest.(check (float 1e-9))

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* --- PRNG --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.int64 a <> Prng.int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_split_decorrelated () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let equal = ref 0 in
  for _ = 1 to 50 do
    if Prng.int64 a = Prng.int64 b then incr equal
  done;
  Alcotest.(check int) "no collisions" 0 !equal

let test_prng_float_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_int_bounds () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_int_uniformity () =
  let rng = Prng.create 5 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let x = Prng.int rng 4 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_close "roughly uniform" 0.02 0.25 frac)
    counts

let test_prng_mean_of_float () =
  let rng = Prng.create 6 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float rng
  done;
  check_close "mean ~ 0.5" 0.01 0.5 (!acc /. float_of_int n)

let test_prng_exponential_mean () =
  let rng = Prng.create 8 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential rng 2.0
  done;
  check_close "mean ~ 1/rate" 0.02 0.5 (!acc /. float_of_int n)

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create 9 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create 10 in
  let arr = Array.init 20 Fun.id in
  let sample = Prng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length sample);
  let distinct = List.sort_uniq compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

let test_pick_empty_rejected () =
  let rng = Prng.create 11 in
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

(* --- Stats -------------------------------------------------------------- *)

let test_stats_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "p0 = min" 1.0 (Stats.percentile xs 0.0);
  check_float "p100 = max" 4.0 (Stats.percentile xs 1.0);
  check_float "median interpolates" 2.5 (Stats.percentile xs 0.5)

let test_stats_summary () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let s = Stats.summarize xs in
  Alcotest.(check int) "count" 101 s.Stats.count;
  check_float "mean" 50.0 s.Stats.mean;
  check_float "p50" 50.0 s.Stats.p50;
  check_float "p90" 90.0 s.Stats.p90;
  check_float "min" 0.0 s.Stats.min;
  check_float "max" 100.0 s.Stats.max

let test_stats_weighted_mean () =
  check_float "weighted" 3.0
    (Stats.weighted_mean [| (1.0, 1.0); (1.0, 5.0) |]);
  check_float "zero weight" 0.0 (Stats.weighted_mean [| (0.0, 10.0) |])

let test_stats_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "counts sum" 4 total

(* --- Numeric ------------------------------------------------------------ *)

let test_maximize_parabola () =
  let f x = -.((x -. 3.0) ** 2.0) in
  let x = Numeric.maximize_unimodal ~lo:0.0 ~hi:10.0 f in
  check_close "argmax" 1e-6 3.0 x

let test_maximize_at_boundary () =
  let f x = x in
  let x = Numeric.maximize_unimodal ~lo:0.0 ~hi:1.0 f in
  check_close "argmax at hi" 1e-6 1.0 x

let test_bisect_root () =
  match Numeric.bisect ~lo:0.0 ~hi:4.0 (fun x -> (x *. x) -. 2.0) with
  | Some root -> check_close "sqrt 2" 1e-8 (sqrt 2.0) root
  | None -> Alcotest.fail "root not found"

let test_bisect_no_sign_change () =
  Alcotest.(check bool) "none" true
    (Numeric.bisect ~lo:0.0 ~hi:1.0 (fun _ -> 1.0) = None)

let test_fixed_point_converges () =
  match Numeric.fixed_point ~init:1.0 (fun x -> cos x) with
  | Some (x, _) -> check_close "dottie number" 1e-7 0.7390851332 x
  | None -> Alcotest.fail "did not converge"

let test_fixed_point_divergence_guard () =
  (* x -> 2x + 1 has fixed point -1 but iteration from 1 diverges with
     damping 1.0. *)
  Alcotest.(check bool) "reported failure or converged" true
    (match Numeric.fixed_point ~damping:1.0 ~max_iter:50 ~init:1.0
             (fun x -> (2.0 *. x) +. 1.0) with
    | None -> true
    | Some _ -> false)

let test_integrate_polynomial () =
  let v = Numeric.integrate ~lo:0.0 ~hi:1.0 (fun x -> x *. x) in
  check_close "x^2 integral" 1e-8 (1.0 /. 3.0) v

let test_derivative () =
  let d = Numeric.derivative (fun x -> x ** 3.0) 2.0 in
  check_close "3x^2 at 2" 1e-4 12.0 d

(* --- Table -------------------------------------------------------------- *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has separator" true
    (String.length s > 0 && String.contains s '-');
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_fmt_float () =
  Alcotest.(check string) "default decimals" "1.2346" (Table.fmt_float 1.23456789);
  Alcotest.(check string) "2 decimals" "1.23" (Table.fmt_float ~decimals:2 1.23456789)

(* --- QCheck properties --------------------------------------------------- *)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.)) (float_range 0.0 1.0))
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let p = Stats.percentile arr q in
      let mn = Array.fold_left Float.min arr.(0) arr in
      let mx = Array.fold_left Float.max arr.(0) arr in
      p >= mn -. 1e-9 && p <= mx +. 1e-9)

let qcheck_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:200
    QCheck.(list (float_range (-1000.) 1000.))
    (fun xs -> Stats.variance (Array.of_list xs) >= 0.0)

let qcheck_int_range_inclusive =
  QCheck.Test.make ~name:"int_range hits inclusive bounds" ~count:100
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Prng.create (a + (b * 1000) + 17) in
      let x = Prng.int_range rng lo hi in
      x >= lo && x <= hi)

(* --- Codec ------------------------------------------------------------- *)

module Codec = Poc_util.Codec

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.put_u8 w 0xAB;
  Codec.put_u32 w 0xDEADBEEF;
  Codec.put_i64 w (-1L);
  Codec.put_int w min_int;
  Codec.put_int w max_int;
  Codec.put_f64 w 3.14159;
  Codec.put_f64 w Float.nan;
  Codec.put_f64 w Float.neg_infinity;
  Codec.put_f64 w (-0.0);
  Codec.put_bool w true;
  Codec.put_string w "hello \x00 world";
  Codec.put_list w Codec.put_int [ 1; 2; 3 ];
  Codec.put_option w Codec.put_f64 (Some 2.5);
  Codec.put_option w Codec.put_f64 None;
  Codec.put_f64_array w [| 0.1; 0.2; Float.nan |];
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 r);
  Alcotest.(check int64) "i64" (-1L) (Codec.get_i64 r);
  Alcotest.(check int) "min_int" min_int (Codec.get_int r);
  Alcotest.(check int) "max_int" max_int (Codec.get_int r);
  check_float "f64" 3.14159 (Codec.get_f64 r);
  Alcotest.(check bool) "NaN survives bit-exactly" true
    (Int64.equal (Int64.bits_of_float Float.nan)
       (Int64.bits_of_float (Codec.get_f64 r)));
  Alcotest.(check bool) "-inf" true (Codec.get_f64 r = Float.neg_infinity);
  Alcotest.(check bool) "-0.0 keeps its sign" true
    (Int64.equal (Int64.bits_of_float (-0.0))
       (Int64.bits_of_float (Codec.get_f64 r)));
  Alcotest.(check bool) "bool" true (Codec.get_bool r);
  Alcotest.(check string) "string with NUL" "hello \x00 world"
    (Codec.get_string r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.get_list r Codec.get_int);
  Alcotest.(check bool) "some" true (Codec.get_option r Codec.get_f64 = Some 2.5);
  Alcotest.(check bool) "none" true (Codec.get_option r Codec.get_f64 = None);
  let arr = Codec.get_f64_array r in
  Alcotest.(check int) "array length" 3 (Array.length arr);
  Alcotest.(check bool) "array NaN" true (Float.is_nan arr.(2));
  Alcotest.(check bool) "reader drained" true (Codec.at_end r)

let test_codec_short_read_raises () =
  let r = Codec.reader "\x01\x02" in
  match Codec.get_u32 r with
  | _ -> Alcotest.fail "short read must raise"
  | exception Codec.Corrupt _ -> ()

let test_codec_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "crc32 of empty" 0 (Codec.crc32 "")

let test_codec_frames () =
  let a = Codec.frame "first" and b = Codec.frame "second" in
  let data = a ^ b in
  (match Codec.next_frame data ~pos:0 with
  | Codec.Frame { payload; next } ->
    Alcotest.(check string) "first frame" "first" payload;
    (match Codec.next_frame data ~pos:next with
    | Codec.Frame { payload; next } ->
      Alcotest.(check string) "second frame" "second" payload;
      Alcotest.(check bool) "clean end" true
        (Codec.next_frame data ~pos:next = Codec.End)
    | Codec.End | Codec.Torn -> Alcotest.fail "second frame unreadable")
  | Codec.End | Codec.Torn -> Alcotest.fail "first frame unreadable");
  (* cut mid-payload: torn, not an exception *)
  (match Codec.next_frame (String.sub a 0 (String.length a - 2)) ~pos:0 with
  | Codec.Torn -> ()
  | Codec.Frame _ | Codec.End -> Alcotest.fail "truncated frame must be torn");
  (* cut mid-header *)
  (match Codec.next_frame (String.sub a 0 3) ~pos:0 with
  | Codec.Torn -> ()
  | Codec.Frame _ | Codec.End -> Alcotest.fail "short header must be torn");
  (* flip a payload byte: checksum mismatch *)
  let corrupt = Bytes.of_string a in
  Bytes.set corrupt (Bytes.length corrupt - 1) 'X';
  match Codec.next_frame (Bytes.to_string corrupt) ~pos:0 with
  | Codec.Torn -> ()
  | Codec.Frame _ | Codec.End -> Alcotest.fail "bad checksum must be torn"

let qcheck_codec_frame_roundtrip =
  QCheck.Test.make ~name:"framing round-trips arbitrary payloads" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun payload ->
      let framed = Codec.frame payload in
      (match Codec.next_frame framed ~pos:0 with
      | Codec.Frame { payload = p; next } ->
        p = payload && next = 8 + String.length payload
      | Codec.End | Codec.Torn -> false)
      (* [single] accepts exactly one whole frame and nothing else. *)
      && Codec.single framed = Some payload
      && Codec.single "" = None
      && Codec.single (String.sub framed 0 (String.length framed - 1)) = None
      && Codec.single (framed ^ "\x00") = None
      && Codec.single (framed ^ framed) = None)

(* Decode a byte string as the journal does: complete frames until End
   or Torn.  Returns the payloads and whether the tail was torn. *)
let decode_all data =
  let rec go pos acc =
    match Codec.next_frame data ~pos with
    | Codec.Frame { payload; next } -> go next (payload :: acc)
    | Codec.End -> (List.rev acc, false)
    | Codec.Torn -> (List.rev acc, true)
  in
  go 0 []

let qcheck_codec_truncation_safe =
  (* The property the whole durability story leans on: cutting a frame
     stream at ANY byte offset yields exactly the records whose frames
     are fully inside the prefix — never an exception, never a phantom
     record, never a reordering.  [Codec.scan] must agree, and must
     tell a cut (a torn tail) from a flipped byte with frames after it
     (interior corruption). *)
  QCheck.Test.make ~name:"truncation at every offset is safe" ~count:60
    QCheck.(list_of_size (Gen.int_range 0 8) (string_of_size (Gen.int_range 0 40)))
    (fun payloads ->
      let data = String.concat "" (List.map Codec.frame payloads) in
      (* Each payload with the offset just past its frame. *)
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (pos, acc) p ->
                  let next = pos + 8 + String.length p in
                  (next, (p, next) :: acc))
                (0, []) payloads))
      in
      let ok = ref true in
      for cut = 0 to String.length data do
        let prefix = String.sub data 0 cut in
        (match decode_all prefix with
        | decoded, torn ->
          (* Every decoded record must be a prefix of the original
             sequence, in order... *)
          let n = List.length decoded in
          if n > List.length payloads then ok := false
          else if decoded <> List.filteri (fun i _ -> i < n) payloads then
            ok := false
          else begin
            (* ...and the split must be exact: a clean End only at a
               frame boundary, Torn everywhere else. *)
            let boundary =
              List.fold_left (fun acc p -> acc + 8 + String.length p) 0
                (List.filteri (fun i _ -> i < n) payloads)
            in
            if torn then begin
              if cut = boundary then ok := false
            end
            else if cut <> boundary then ok := false
          end
        | exception _ -> ok := false);
        let whole = List.filter (fun (_, next) -> next <= cut) ends in
        let valid = List.fold_left (fun _ (_, next) -> next) 0 whole in
        let s = Codec.scan ~from:0 ~decode:Fun.id prefix in
        if
          s.Codec.frames <> whole
          || s.Codec.valid <> valid
          || s.Codec.verdict
             <> (if cut = valid then Codec.Clean else Codec.Torn_tail)
        then ok := false
      done;
      (* Flip each byte of each frame k in turn.  The frames before k
         survive; the damage is interior exactly when a later frame is
         a resync point (non-empty: see [Codec.resync]), and never
         reads as clean. *)
      List.iteri
        (fun k (p, next) ->
          let start = next - 8 - String.length p in
          let before = List.filteri (fun i _ -> i < k) ends in
          let interior =
            List.exists
              (fun (q, _) -> q <> "")
              (List.filteri (fun i _ -> i > k) ends)
          in
          for i = start to next - 1 do
            let b = Bytes.of_string data in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
            let s = Codec.scan ~from:0 ~decode:Fun.id (Bytes.to_string b) in
            if
              s.Codec.frames <> before
              || s.Codec.valid <> start
              || s.Codec.verdict
                 <> (if interior then Codec.Corrupt_at start
                     else Codec.Torn_tail)
            then ok := false
          done)
        ends;
      !ok)

let test_codec_resync () =
  (* A run of zero bytes parses as valid empty frames (crc32 "" = 0);
     resync must skip them and land on the first real record. *)
  let real = Codec.frame "payload" in
  let data = String.make 16 '\x00' ^ real in
  (match Codec.resync data ~pos:0 with
  | Some p -> (
    Alcotest.(check int) "lands on the real frame" 16 p;
    match Codec.next_frame data ~pos:p with
    | Codec.Frame { payload; _ } ->
      Alcotest.(check string) "payload intact" "payload" payload
    | Codec.End | Codec.Torn -> Alcotest.fail "resync target unreadable")
  | None -> Alcotest.fail "resync must find the embedded frame");
  (* Corrupt interior: garbage then a real frame. *)
  let data = "GARBAGE!" ^ real in
  (match Codec.resync data ~pos:0 with
  | Some 8 -> ()
  | Some p -> Alcotest.failf "expected offset 8, got %d" p
  | None -> Alcotest.fail "resync must skip garbage");
  (* Nothing to find. *)
  Alcotest.(check bool) "no frame gives None" true
    (Codec.resync "no frames here, just text" ~pos:0 = None)

let test_prng_state_roundtrip () =
  (* Persisting the cursor and restoring it must continue the same
     stream — the property journal snapshots rely on. *)
  let a = Prng.create 99 in
  for _ = 1 to 57 do
    ignore (Prng.int64 a)
  done;
  let saved = Prng.state a in
  let rest = List.init 50 (fun _ -> Prng.int64 a) in
  let b = Prng.of_state saved in
  let replayed = List.init 50 (fun _ -> Prng.int64 b) in
  Alcotest.(check bool) "stream continues identically" true (rest = replayed)

(* --- Pool: fixed-size domain pool -------------------------------------- *)

module Pool = Poc_util.Pool

let test_pool_map_ordered () =
  let xs = Array.init 100 Fun.id in
  Pool.with_pool ~jobs:3 (fun pool ->
      let pool = Option.get pool in
      let out = Pool.map pool (fun x -> x * x) xs in
      Alcotest.(check bool)
        "map equals Array.map" true
        (out = Array.map (fun x -> x * x) xs))

let test_pool_reuse () =
  (* One pool, many jobs: workers are reused, results stay ordered. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let pool = Option.get pool in
      for round = 1 to 20 do
        let xs = Array.init (round * 7) (fun i -> i + round) in
        let out = Pool.map pool (fun x -> x * 2) xs in
        if out <> Array.map (fun x -> x * 2) xs then
          Alcotest.failf "round %d diverged" round
      done)

let test_pool_inline_when_small () =
  (* jobs <= 1 yields None (serial semantics), and a size-0 pool runs
     inline with no domains. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool) "jobs=1 gives no pool" true (pool = None));
  let p = Pool.create 0 in
  Alcotest.(check int) "size 0" 0 (Pool.size p);
  let out = Pool.map p string_of_int [| 1; 2; 3 |] in
  Alcotest.(check bool) "inline map works" true (out = [| "1"; "2"; "3" |]);
  Pool.shutdown p

let test_pool_empty_input () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let pool = Option.get pool in
      Alcotest.(check bool)
        "empty array" true
        (Pool.map pool Fun.id [||] = [||]);
      Alcotest.(check bool) "empty list" true (Pool.map_list pool Fun.id [] = []))

let test_pool_lowest_index_exception () =
  (* Several elements raise; the submitter must see the lowest index's
     exception, whatever the scheduling. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let pool = Option.get pool in
      let xs = Array.init 64 Fun.id in
      match
        Pool.map pool
          (fun x -> if x mod 10 = 3 then failwith (string_of_int x) else x)
          xs
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        Alcotest.(check string) "lowest failing index wins" "3" msg)

let test_pool_nested_submission_inline () =
  (* A parallelized function that itself submits to the same pool must
     not deadlock: the inner submission runs inline on the worker. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let pool = Option.get pool in
      let out =
        Pool.map pool
          (fun x ->
            let inner = Pool.map pool (fun y -> y + x) [| 1; 2; 3 |] in
            Array.fold_left ( + ) 0 inner)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool)
        "nested results correct" true
        (out = Array.init 8 (fun x -> 6 + (3 * x))))

let test_pool_use_after_shutdown () =
  let p = Pool.create 2 in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.map p Fun.id [| 1; 2 |] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_pool_negative_size_rejected () =
  match Pool.create (-1) with
  | _ -> Alcotest.fail "negative size must raise"
  | exception Invalid_argument _ -> ()

let test_pool_deterministic_across_sizes () =
  (* The same pure map at several pool sizes returns the same array. *)
  let xs = Array.init 200 (fun i -> (i * 37) mod 101) in
  let f x = (x * x) + 1 in
  let expect = Array.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let out =
            match pool with
            | None -> Array.map f xs
            | Some p -> Pool.map p f xs
          in
          if out <> expect then Alcotest.failf "jobs=%d diverged" jobs))
    [ 1; 2; 3; 4; 8 ]

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng split decorrelated" `Quick test_prng_split_decorrelated;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int uniformity" `Quick test_prng_int_uniformity;
    Alcotest.test_case "prng float mean" `Quick test_prng_mean_of_float;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_is_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "pick on empty array" `Quick test_pick_empty_rejected;
    Alcotest.test_case "stats mean/variance" `Quick test_stats_mean_variance;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats weighted mean" `Quick test_stats_weighted_mean;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "maximize parabola" `Quick test_maximize_parabola;
    Alcotest.test_case "maximize at boundary" `Quick test_maximize_at_boundary;
    Alcotest.test_case "bisect finds root" `Quick test_bisect_root;
    Alcotest.test_case "bisect needs sign change" `Quick test_bisect_no_sign_change;
    Alcotest.test_case "fixed point converges" `Quick test_fixed_point_converges;
    Alcotest.test_case "fixed point divergence guard" `Quick test_fixed_point_divergence_guard;
    Alcotest.test_case "simpson integration" `Quick test_integrate_polynomial;
    Alcotest.test_case "central derivative" `Quick test_derivative;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "fmt_float" `Quick test_fmt_float;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_variance_nonneg;
    QCheck_alcotest.to_alcotest qcheck_int_range_inclusive;
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec short read raises" `Quick
      test_codec_short_read_raises;
    Alcotest.test_case "codec crc32 check vector" `Quick test_codec_crc32_vector;
    Alcotest.test_case "codec frames and torn tails" `Quick test_codec_frames;
    QCheck_alcotest.to_alcotest qcheck_codec_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_codec_truncation_safe;
    Alcotest.test_case "codec resync skips zero runs and garbage" `Quick
      test_codec_resync;
    Alcotest.test_case "prng state round-trip" `Quick test_prng_state_roundtrip;
    Alcotest.test_case "pool map ordered" `Quick test_pool_map_ordered;
    Alcotest.test_case "pool worker reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool inline when small" `Quick
      test_pool_inline_when_small;
    Alcotest.test_case "pool empty input" `Quick test_pool_empty_input;
    Alcotest.test_case "pool lowest-index exception" `Quick
      test_pool_lowest_index_exception;
    Alcotest.test_case "pool nested submission runs inline" `Quick
      test_pool_nested_submission_inline;
    Alcotest.test_case "pool use after shutdown" `Quick
      test_pool_use_after_shutdown;
    Alcotest.test_case "pool negative size rejected" `Quick
      test_pool_negative_size_rejected;
    Alcotest.test_case "pool deterministic across sizes" `Quick
      test_pool_deterministic_across_sizes;
  ]
