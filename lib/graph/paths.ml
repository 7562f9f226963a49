type path = Graph.edge list

let always_enabled _ = true

let path_weight p = List.fold_left (fun acc (e : Graph.edge) -> acc +. e.weight) 0.0 p

let path_nodes ~src p =
  let rec walk node = function
    | [] -> [ node ]
    | e :: rest -> node :: walk (Graph.other_endpoint e node) rest
  in
  walk src p

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

let connected ?(enabled = always_enabled) g src dst =
  match hop_distance ~enabled g src dst with Some _ -> true | None -> false

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

(* Yen's k-shortest loopless paths.  Candidate paths are deduplicated
   by their edge-id sequence. *)
let k_shortest_paths ?(enabled = always_enabled) g src dst k =
  if k <= 0 then []
  else begin
    match shortest_path ~enabled g src dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates : (float * path) list ref = ref [] in
      let path_ids p = List.map (fun (e : Graph.edge) -> e.id) p in
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen (path_ids first) ();
      let rec iterate count =
        if count >= k then ()
        else begin
          let prev = List.hd !accepted in
          let prev_nodes = Array.of_list (path_nodes ~src prev) in
          let prev_edges = Array.of_list prev in
          (* For each spur node along the previous path... *)
          for i = 0 to Array.length prev_edges - 1 do
            let spur_node = prev_nodes.(i) in
            let root = Array.to_list (Array.sub prev_edges 0 i) in
            let root_ids = path_ids root in
            (* Edges to hide: the next edge of any accepted path sharing
               this root, plus edges incident to root-interior nodes. *)
            let hidden_edges = Hashtbl.create 16 in
            let hide_next p =
              let ids = path_ids p in
              let rec shares a b =
                match (a, b) with
                | [], next :: _ -> Some next
                | x :: a', y :: b' when x = y -> shares a' b'
                | _, _ -> None
              in
              match shares root_ids ids with
              | Some next -> Hashtbl.replace hidden_edges next ()
              | None -> ()
            in
            List.iter hide_next !accepted;
            let hidden_nodes = Hashtbl.create 16 in
            for j = 0 to i - 1 do
              Hashtbl.replace hidden_nodes prev_nodes.(j) ()
            done;
            let enabled' eid =
              enabled eid
              && (not (Hashtbl.mem hidden_edges eid))
              &&
              let e = Graph.edge g eid in
              (not (Hashtbl.mem hidden_nodes e.u)) && not (Hashtbl.mem hidden_nodes e.v)
            in
            match shortest_path ~enabled:enabled' g spur_node dst with
            | None -> ()
            | Some spur ->
              let total = root @ spur in
              let ids = path_ids total in
              if not (Hashtbl.mem seen ids) then begin
                Hashtbl.replace seen ids ();
                candidates := (path_weight total, total) :: !candidates
              end
          done;
          match List.sort (fun (a, _) (b, _) -> compare a b) !candidates with
          | [] -> ()
          | (_, best) :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            iterate (count + 1)
        end
      in
      iterate 1;
      List.rev !accepted
  end

let bridges ?(enabled = always_enabled) g =
  (* Tarjan low-link over the enabled subgraph; parallel edges between
     the same endpoints are never bridges, handled by skipping only the
     specific tree edge id. *)
  let n = Graph.node_count g in
  let visited = Array.make n false in
  let disc = Array.make n 0 in
  let low = Array.make n 0 in
  let timer = ref 0 in
  let result = ref [] in
  let rec dfs u parent_edge =
    visited.(u) <- true;
    incr timer;
    disc.(u) <- !timer;
    low.(u) <- !timer;
    let visit (v, (e : Graph.edge)) =
      if enabled e.id then begin
        if not visited.(v) then begin
          dfs v (Some e.id);
          low.(u) <- min low.(u) low.(v);
          if low.(v) > disc.(u) then result := e.id :: !result
        end
        else if Some e.id <> parent_edge then low.(u) <- min low.(u) disc.(v)
      end
    in
    List.iter visit (Graph.neighbors g u)
  in
  for u = 0 to n - 1 do
    if not visited.(u) then dfs u None
  done;
  List.sort compare !result
