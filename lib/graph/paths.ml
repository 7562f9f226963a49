type path = Graph.edge list

let always_enabled _ = true

let path_weight p = List.fold_left (fun acc (e : Graph.edge) -> acc +. e.weight) 0.0 p

let dijkstra ?(enabled = always_enabled) g src =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Paths.dijkstra: unknown source";
  let csr = Sparse.of_graph g in
  let row = csr.Sparse.row_start in
  let col = csr.Sparse.col in
  let eid = csr.Sparse.eid in
  let wt = csr.Sparse.weight in
  let dist = Array.make n infinity in
  let pred = Array.make n None in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  (* CSR half-edges per node are in ascending insertion order — the
     same order Graph.neighbors yields — so results are bit-identical
     with the list-based relaxation this replaces. *)
  while not (Heap.is_empty heap) do
    let u = Heap.min_value heap in
    Heap.remove_min heap;
    if not settled.(u) then begin
      settled.(u) <- true;
      (* A node is pushed only when its distance strictly drops, so its
         first pop carries its last, smallest key: dist.(u). *)
      let d = dist.(u) in
      let stop = row.{u + 1} in
      for k = row.{u} to stop - 1 do
        let id = eid.{k} in
        let v = col.{k} in
        if enabled id && not settled.(v) then begin
          let nd = d +. wt.{k} in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- Some id;
            Heap.push heap nd v
          end
        end
      done
    end
  done;
  (dist, pred)

let reconstruct g pred src dst =
  let rec walk node acc =
    if node = src then Some acc
    else begin
      match pred.(node) with
      | None -> None
      | Some eid ->
        let e = Graph.edge g eid in
        walk (Graph.other_endpoint e node) (e :: acc)
    end
  in
  walk dst []

let shortest_path ?(enabled = always_enabled) g src dst =
  if src = dst then Some []
  else begin
    let _, pred = dijkstra ~enabled g src in
    reconstruct g pred src dst
  end

let hop_distance ?(enabled = always_enabled) g src dst =
  let n = Graph.node_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.hop_distance: unknown node";
  if src = dst then Some 0
  else begin
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.push src queue;
    let result = ref None in
    while !result = None && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let visit (v, (e : Graph.edge)) =
        if enabled e.id && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if v = dst then result := Some dist.(v) else Queue.push v queue
        end
      in
      List.iter visit (Graph.neighbors g u)
    done;
    !result
  end

let components ?(enabled = always_enabled) g =
  let n = Graph.node_count g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for start = 0 to n - 1 do
    if label.(start) < 0 then begin
      let c = !next in
      incr next;
      let queue = Queue.create () in
      label.(start) <- c;
      Queue.push start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        let visit (v, (e : Graph.edge)) =
          if enabled e.id && label.(v) < 0 then begin
            label.(v) <- c;
            Queue.push v queue
          end
        in
        List.iter visit (Graph.neighbors g u)
      done
    end
  done;
  label

let component_count ?enabled g =
  let label = components ?enabled g in
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 label

let is_connected ?enabled g =
  Graph.node_count g < 2 || component_count ?enabled g = 1
