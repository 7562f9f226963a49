(* Tests for Poc_graph: structure, heap, shortest paths, connectivity
   and the CSR views. *)

module Graph = Poc_graph.Graph
module Heap = Poc_graph.Heap
module Paths = Poc_graph.Paths
module Sparse = Poc_graph.Sparse
module Prng = Poc_util.Prng

let check_float = Alcotest.(check (float 1e-9))

(* A small diamond: 0-1-3 and 0-2-3 with a direct 0-3 chord. *)
let diamond () =
  let g = Graph.create () in
  Graph.add_nodes g 4;
  let e01 = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let e13 = Graph.add_edge g 1 3 ~weight:1.0 ~capacity:10.0 in
  let e02 = Graph.add_edge g 0 2 ~weight:2.0 ~capacity:5.0 in
  let e23 = Graph.add_edge g 2 3 ~weight:2.0 ~capacity:5.0 in
  let e03 = Graph.add_edge g 0 3 ~weight:5.0 ~capacity:1.0 in
  (g, e01, e13, e02, e23, e03)

let random_graph seed ~nodes ~edges =
  let rng = Prng.create seed in
  let g = Graph.create () in
  Graph.add_nodes g nodes;
  (* Spanning chain for connectivity, then random extras. *)
  for v = 1 to nodes - 1 do
    ignore
      (Graph.add_edge g (v - 1) v
         ~weight:(1.0 +. Prng.float rng)
         ~capacity:(1.0 +. (10.0 *. Prng.float rng)))
  done;
  let added = ref 0 in
  while !added < edges do
    let a = Prng.int rng nodes and b = Prng.int rng nodes in
    if a <> b then begin
      ignore
        (Graph.add_edge g a b
           ~weight:(1.0 +. Prng.float rng)
           ~capacity:(1.0 +. (10.0 *. Prng.float rng)));
      incr added
    end
  done;
  g

(* --- Graph structure ---------------------------------------------------- *)

let test_graph_basics () =
  let g, e01, _, _, _, _ = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 5 (Graph.edge_count g);
  Alcotest.(check int) "degree 0" 3 (Graph.degree g 0);
  let e = Graph.edge g e01 in
  Alcotest.(check int) "other endpoint" 1 (Graph.other_endpoint e 0);
  Alcotest.(check int) "other endpoint rev" 0 (Graph.other_endpoint e 1)

let test_graph_rejects_bad_edges () =
  let g = Graph.create () in
  Graph.add_nodes g 2;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> ignore (Graph.add_edge g 0 0 ~weight:1.0 ~capacity:1.0));
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.add_edge: unknown endpoint") (fun () ->
      ignore (Graph.add_edge g 0 5 ~weight:1.0 ~capacity:1.0));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Graph.add_edge: negative weight or capacity") (fun () ->
      ignore (Graph.add_edge g 0 1 ~weight:(-1.0) ~capacity:1.0))

let test_graph_parallel_edges () =
  let g = Graph.create () in
  Graph.add_nodes g 2;
  let a = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:1.0 in
  let b = Graph.add_edge g 0 1 ~weight:2.0 ~capacity:2.0 in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "degree counts both" 2 (Graph.degree g 0)

let test_fold_edges () =
  let g, _, _, _, _, _ = diamond () in
  let total = Graph.fold_edges (fun e acc -> acc +. e.Graph.capacity) g 0.0 in
  check_float "total capacity" 31.0 total

(* --- Heap --------------------------------------------------------------- *)

let test_heap_sorted_pops () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain [])

let qcheck_heap_property =
  QCheck.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain neg_infinity)

(* The record-based heap the flat one replaced, kept verbatim as the
   reference for tie order: every path the router picks rests on the
   order in which equal keys pop. *)
module Record_heap = struct
  type 'a entry = { key : float; value : 'a }

  type 'a t = { mutable data : 'a entry array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let clear h = h.len <- 0

  let grow h entry =
    let cap = Array.length h.data in
    if h.len = cap then begin
      let ncap = max 16 (2 * cap) in
      let ndata = Array.make ncap entry in
      Array.blit h.data 0 ndata 0 h.len;
      h.data <- ndata
    end

  let push h key value =
    let entry = { key; value } in
    grow h entry;
    h.data.(h.len) <- entry;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.data.(parent).key > h.data.(!i).key then begin
        let tmp = h.data.(parent) in
        h.data.(parent) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && h.data.(l).key < h.data.(!smallest).key then
            smallest := l;
          if r < h.len && h.data.(r).key < h.data.(!smallest).key then
            smallest := r;
          if !smallest <> !i then begin
            let tmp = h.data.(!smallest) in
            h.data.(!smallest) <- h.data.(!i);
            h.data.(!i) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some (top.key, top.value)
    end
end

type heap_op = Push of float | Pop | Take | Clear

let qcheck_heap_tie_order =
  (* Few distinct keys (nan and the infinities among them), so most
     pushes tie; each pushed value is its sequence number, so a
     different tie order shows as a different popped value.  [Take]
     pops through the allocation-free min_value/remove_min pair. *)
  let keys = [| 0.0; 1.0; 1.0; 2.0; 2.0; 3.0; infinity; neg_infinity; nan |] in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun i -> Push keys.(i)) (int_bound (Array.length keys - 1)));
          (2, return Pop);
          (2, return Take);
          (1, return Clear);
        ])
  in
  let show = function
    | Push k -> Printf.sprintf "push %g" k
    | Pop -> "pop"
    | Take -> "take"
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"heap pops ties in the record heap's order" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let h = Heap.create () and r = Record_heap.create () in
      let seq = ref 0 in
      let same a b = compare a b = 0 in
      let step ok = function
        | Push k ->
          incr seq;
          Heap.push h k !seq;
          Record_heap.push r k !seq;
          ok
        | Pop -> ok && same (Heap.pop h) (Record_heap.pop r)
        | Take -> (
          match Record_heap.pop r with
          | None -> ok && Heap.is_empty h
          | Some (_, v) ->
            let v' = Heap.min_value h in
            Heap.remove_min h;
            ok && v = v')
        | Clear ->
          Heap.clear h;
          Record_heap.clear r;
          ok
      in
      let ok = List.fold_left step true ops in
      let rec drain ok =
        match Record_heap.pop r with
        | None -> ok && Heap.is_empty h
        | Some _ as top -> drain (ok && same (Heap.pop h) top)
      in
      drain ok && Heap.size h = 0)

(* --- Shortest paths ------------------------------------------------------ *)

let test_dijkstra_diamond () =
  let g, _, _, _, _, _ = diamond () in
  let dist, _ = Paths.dijkstra g 0 in
  check_float "dist 3 via 1" 2.0 dist.(3);
  check_float "dist 2" 2.0 dist.(2)

let test_shortest_path_structure () =
  let g, e01, e13, _, _, _ = diamond () in
  match Paths.shortest_path g 0 3 with
  | None -> Alcotest.fail "should be connected"
  | Some p ->
    Alcotest.(check (list int)) "takes the cheap branch" [ e01; e13 ]
      (List.map (fun (e : Graph.edge) -> e.id) p);
    check_float "weight" 2.0 (Paths.path_weight p)

let test_shortest_path_respects_enabled () =
  let g, e01, _, e02, e23, _ = diamond () in
  let enabled id = id <> e01 in
  match Paths.shortest_path ~enabled g 0 3 with
  | None -> Alcotest.fail "still connected"
  | Some p ->
    Alcotest.(check (list int)) "detours" [ e02; e23 ]
      (List.map (fun (e : Graph.edge) -> e.id) p)

let test_disconnected () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:1.0);
  Alcotest.(check bool) "no path" true (Paths.shortest_path g 0 2 = None);
  Alcotest.(check bool) "not connected" false (Paths.is_connected g);
  Alcotest.(check int) "two components" 2 (Paths.component_count g)

let test_hop_distance () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.(check (option int)) "one hop via chord" (Some 1)
    (Paths.hop_distance g 0 3);
  Alcotest.(check (option int)) "self" (Some 0) (Paths.hop_distance g 1 1)

let qcheck_dijkstra_matches_bfs_on_unit_weights =
  QCheck.Test.make ~name:"dijkstra = bfs on unit weights" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Graph.create () in
      let n = 12 in
      Graph.add_nodes g n;
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g (Prng.int rng v) v ~weight:1.0 ~capacity:1.0)
      done;
      for _ = 1 to 6 do
        let a = Prng.int rng n and b = Prng.int rng n in
        if a <> b then ignore (Graph.add_edge g a b ~weight:1.0 ~capacity:1.0)
      done;
      let dist, _ = Paths.dijkstra g 0 in
      List.for_all
        (fun v ->
          match Paths.hop_distance g 0 v with
          | None -> dist.(v) = infinity
          | Some h -> Float.abs (dist.(v) -. float_of_int h) < 1e-9)
        (List.init n Fun.id))

(* --- Sparse (CSR) ---------------------------------------------------------- *)

let test_sparse_matches_neighbors () =
  let g = random_graph 77 ~nodes:8 ~edges:12 in
  let csr = Sparse.of_graph g in
  Alcotest.(check int) "node count" (Graph.node_count g) csr.Sparse.nodes;
  Alcotest.(check int) "edge count" (Graph.edge_count g) csr.Sparse.edges;
  for u = 0 to Graph.node_count g - 1 do
    let row =
      List.init
        (csr.Sparse.row_start.{u + 1} - csr.Sparse.row_start.{u})
        (fun i ->
          let k = csr.Sparse.row_start.{u} + i in
          (csr.Sparse.col.{k}, csr.Sparse.eid.{k}, csr.Sparse.weight.{k}))
    in
    let adj =
      List.map
        (fun (v, (e : Graph.edge)) -> (v, e.Graph.id, e.Graph.weight))
        (Graph.neighbors g u)
    in
    Alcotest.(check (list (triple int int (float 0.0))))
      (Printf.sprintf "row %d equals Graph.neighbors order" u)
      adj row
  done

let test_sparse_memoized_and_invalidated () =
  let g = random_graph 78 ~nodes:6 ~edges:8 in
  let a = Sparse.of_graph g in
  let b = Sparse.of_graph g in
  Alcotest.(check bool) "same compiled view reused" true (a == b);
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:1.0);
  let c = Sparse.of_graph g in
  Alcotest.(check bool) "version bump rebuilds" true (not (a == c));
  Alcotest.(check int) "rebuilt view sees the new edge"
    (Graph.edge_count g) c.Sparse.edges

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph rejects bad edges" `Quick test_graph_rejects_bad_edges;
    Alcotest.test_case "parallel edges" `Quick test_graph_parallel_edges;
    Alcotest.test_case "fold over edges" `Quick test_fold_edges;
    Alcotest.test_case "heap sorted pops" `Quick test_heap_sorted_pops;
    QCheck_alcotest.to_alcotest qcheck_heap_property;
    QCheck_alcotest.to_alcotest qcheck_heap_tie_order;
    Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
    Alcotest.test_case "shortest path structure" `Quick test_shortest_path_structure;
    Alcotest.test_case "shortest path enabled mask" `Quick test_shortest_path_respects_enabled;
    Alcotest.test_case "disconnected graphs" `Quick test_disconnected;
    Alcotest.test_case "hop distance" `Quick test_hop_distance;
    QCheck_alcotest.to_alcotest qcheck_dijkstra_matches_bfs_on_unit_weights;
    Alcotest.test_case "sparse CSR matches neighbors" `Quick
      test_sparse_matches_neighbors;
    Alcotest.test_case "sparse memo keyed on version" `Quick
      test_sparse_memoized_and_invalidated;
  ]
