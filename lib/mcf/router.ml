module Graph = Poc_graph.Graph
module Sparse = Poc_graph.Sparse
module Heap = Poc_graph.Heap
module Metrics = Poc_obs.Metrics

(* Router work counters: every full solve, every shortest-path search
   and every committed path chunk, plus the incremental re-routes the
   auction's pruning and failure checks lean on.  Always on, so any run
   can report how much routing a selection cost.  Searches and chunks
   are tallied in the domain's scratch (below) and added to their
   counters once per public call, or once per check of a failure
   batch, so the totals are exact. *)
let m_routes =
  Metrics.counter ~help:"Full routing solves" Metrics.default
    "poc_router_routes_total"

let m_dijkstra =
  Metrics.counter ~help:"Residual-graph shortest-path searches"
    Metrics.default "poc_router_dijkstra_total"

let m_paths =
  Metrics.counter ~help:"Path chunks committed by the router"
    Metrics.default "poc_router_paths_total"

let m_reroutes =
  Metrics.counter ~help:"Incremental single-edge re-route computations"
    Metrics.default "poc_router_reroutes_total"

let m_toggle_repairs =
  Metrics.counter
    ~help:"Single-link toggles answered by repairing the base flow"
    Metrics.default "poc_router_toggle_repairs_total"

let m_toggle_scratch =
  Metrics.counter
    ~help:"Single-link toggles that fell back to a from-scratch solve"
    Metrics.default "poc_router_toggle_scratch_total"

type demand = int * int * float

type chunk = { src : int; dst : int; gbps : float; edge_ids : int list }

(* The edges a routing carries flow on, ascending, with the Gbps on
   each: every nonzero entry of the per-edge usage its solve left,
   residues below eps included, because the searches divide by them.
   Never mutated once built, so routings may share one. *)
type flow = { edges : int array; carried : float array }

type routing = {
  feasible : bool;
  chunks : chunk array;
  unrouted : demand list;
  flow : flow;
  enabled_capacity : float;
}

type toggle = Remove of int | Add of int

let eps = 1e-6

let max_paths_per_demand = 64

let validate_demand n (a, b, d) =
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Router: unknown node";
  if a = b then invalid_arg "Router: self demand";
  if d < 0.0 || not (Float.is_finite d) then invalid_arg "Router: bad demand"

(* The half-edges a path search walks, laid out like the CSR: either
   the compiled CSR itself or a compact copy of the half-edges whose
   edge can hold residual in the current call.  A [route] or a failure
   batch runs many searches over one enabled set and compacts; a single
   reroute's few searches do not repay the O(links) copy, so it walks
   the CSR (DESIGN.md, "Router scratch", has the measurements). *)
type adjacency = {
  row : Sparse.int_slab;
  col : Sparse.int_slab;
  eids : Sparse.int_slab;
  lat : Sparse.float_slab;
}

let csr_adjacency (csr : Sparse.t) =
  {
    row = csr.Sparse.row_start;
    col = csr.Sparse.col;
    eids = csr.Sparse.eid;
    lat = csr.Sparse.weight;
  }

let adjacency_create ~nodes ~half_edges =
  {
    row = Sparse.int_slab_create (nodes + 1);
    col = Sparse.int_slab_create half_edges;
    eids = Sparse.int_slab_create half_edges;
    lat = Sparse.float_slab_create half_edges;
  }

(* Per-domain scratch (DESIGN.md, "Router scratch"): search state, the
   compact adjacency, the residual/usage buffers every call works in,
   the crossing index, the displaced-demand table and the counter
   tallies.  Sized for the largest graph the domain has routed.
   Nothing in it escapes a call: a returned routing gets its own copy
   of the edges that carry flow. *)
type scratch = {
  mutable dist : float array;
  mutable pred : int array; (* edge id into each reached node *)
  mutable from : int array; (* node at the other end of that edge *)
  mutable settled : bool array;
  heap : Heap.t;
  mutable keep : Bytes.t; (* per edge id: may hold residual in this call *)
  mutable compact : adjacency;
  mutable shared : Sparse.Buf.buf; (* a failure batch's base state *)
  mutable work : Sparse.Buf.buf; (* the state of the solve or check in hand *)
  mutable crossing_at : Sparse.int_slab;
      (* a failure batch's index: edge [e]'s base chunks are
         [crossing.{crossing_at.{e}} .. crossing.{crossing_at.{e+1} - 1}] *)
  mutable crossing : Sparse.int_slab; (* base chunk indices, in chunk order *)
  affected : (int * int, float) Hashtbl.t; (* displaced Gbps per pair *)
  mutable searches : int;
  mutable paths : int;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        dist = [||];
        pred = [||];
        from = [||];
        settled = [||];
        heap = Heap.create ();
        keep = Bytes.empty;
        compact = adjacency_create ~nodes:0 ~half_edges:0;
        shared = Sparse.Buf.create 0;
        work = Sparse.Buf.create 0;
        crossing_at = Sparse.int_slab_create 0;
        crossing = Sparse.int_slab_create 0;
        affected = Hashtbl.create 16;
        searches = 0;
        paths = 0;
      })

(* The calling domain's scratch, with search state for [n] nodes. *)
let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dist < n then begin
    s.dist <- Array.make n infinity;
    s.pred <- Array.make n (-1);
    s.from <- Array.make n (-1);
    s.settled <- Array.make n false
  end;
  s

(* A buffer of at least [m] edges, kept at the largest size asked for;
   callers use its first [m] entries. *)
let at_least (buf : Sparse.Buf.buf) m =
  if Bigarray.Array1.dim buf.Sparse.Buf.residual >= m then buf
  else Sparse.Buf.create m

(* The work buffer, with room for [m] edges. *)
let work_buf s m =
  s.work <- at_least s.work m;
  s.work

(* A slab of at least [n] ints, kept at the largest size asked for. *)
let int_slab_at_least slab n =
  if Bigarray.Array1.dim slab >= n then slab else Sparse.int_slab_create n

let flush_counters s =
  if s.searches > 0 then begin
    Metrics.Counter.add m_dijkstra (float_of_int s.searches);
    s.searches <- 0
  end;
  if s.paths > 0 then begin
    Metrics.Counter.add m_paths (float_of_int s.paths);
    s.paths <- 0
  end

(* Mark in [s.keep] the edges with residual above eps in [buf]. *)
let mark_residual s (buf : Sparse.Buf.buf) m =
  if Bytes.length s.keep < m then s.keep <- Bytes.create m;
  let residual = buf.Sparse.Buf.residual in
  for id = 0 to m - 1 do
    Bytes.set s.keep id (if residual.{id} > eps then '\001' else '\000')
  done

(* Copy the CSR half-edges whose edge [s.keep] marks, in CSR order, into
   the scratch's compact adjacency.  A search over it relaxes exactly
   what a search over the whole CSR does, provided every dropped
   half-edge keeps its residual at or below eps for the whole call: the
   residual gate skips those anyway, and the kept ones are visited in
   the same order. *)
let compact s (csr : Sparse.t) =
  let n = csr.Sparse.nodes in
  let a =
    let have = s.compact in
    if
      Bigarray.Array1.dim have.row > n
      && Bigarray.Array1.dim have.col >= 2 * csr.Sparse.edges
    then have
    else begin
      let a =
        adjacency_create
          ~nodes:(max n (Bigarray.Array1.dim have.row - 1))
          ~half_edges:
            (max (2 * csr.Sparse.edges) (Bigarray.Array1.dim have.col))
      in
      s.compact <- a;
      a
    end
  in
  let row = csr.Sparse.row_start in
  let col = csr.Sparse.col in
  let eids = csr.Sparse.eid in
  let lat = csr.Sparse.weight in
  let keep = s.keep in
  let k = ref 0 in
  for u = 0 to n - 1 do
    a.row.{u} <- !k;
    for h = row.{u} to row.{u + 1} - 1 do
      let id = eids.{h} in
      if Bytes.get keep id <> '\000' then begin
        a.col.{!k} <- col.{h};
        a.eids.{!k} <- id;
        a.lat.{!k} <- lat.{h};
        incr k
      end
    done
  done;
  a.row.{n} <- !k;
  a

(* Congestion-aware Dijkstra on the residual graph; true when [dst] is
   reached, with the path left in [s.pred] and [s.from] (only the
   entries of nodes this search reached are meaningful).  Weight of an
   edge is latency * (1 + alpha * u) where u is current utilization,
   which spreads load before links saturate.  Disabled edges carry zero
   residual, so the residual gate excludes them without a per-visit
   predicate call, and adjacency order matches the list order the
   first implementation used, keeping path choices bit-identical. *)
let residual_dijkstra s adj ~(cap : Sparse.float_slab)
    ~(buf : Sparse.Buf.buf) ~alpha n src dst =
  s.searches <- s.searches + 1;
  let row = adj.row and col = adj.col and eids = adj.eids and lat = adj.lat in
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  let dist = s.dist and pred = s.pred and from = s.from in
  let settled = s.settled and heap = s.heap in
  Array.fill dist 0 n infinity;
  Array.fill settled 0 n false;
  Heap.clear heap;
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  while (not (Heap.is_empty heap)) && not settled.(dst) do
    let u = Heap.min_value heap in
    Heap.remove_min heap;
    if not settled.(u) then begin
      settled.(u) <- true;
      (* A node is pushed only when its distance strictly drops, so its
         first pop carries its last, smallest key: dist.(u). *)
      let d = dist.(u) in
      for k = row.{u} to row.{u + 1} - 1 do
        let v = col.{k} in
        let eid = eids.{k} in
        if (not settled.(v)) && residual.{eid} > eps then begin
          let c = cap.{eid} in
          let util = if c > 0.0 then usage.{eid} /. c else 0.0 in
          let w = lat.{k} *. (1.0 +. (alpha *. util)) in
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- eid;
            from.(v) <- u;
            Heap.push heap nd v
          end
        end
      done
    end
  done;
  dist.(dst) <> infinity

(* Route one demand (possibly splitting) on the residual state in
   [buf]; returns the unrouted remainder.  With [chunks], every
   committed path is pushed onto it, newest first.  A path is a walk up
   the search tree from [dst], so it crosses each edge once and neither
   its bottleneck nor its commit depends on the direction of the walk;
   consing on the way up lists it from [src]. *)
let route_one s adj ~cap ~(buf : Sparse.Buf.buf) ~alpha ?chunks n
    (src, dst, gbps) =
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  let pred = s.pred and from = s.from in
  let record = Option.is_some chunks in
  let remaining = ref gbps in
  let attempts = ref 0 in
  let blocked = ref false in
  while
    (not !blocked) && !remaining > eps && !attempts < max_paths_per_demand
  do
    if not (residual_dijkstra s adj ~cap ~buf ~alpha n src dst) then
      blocked := true
    else begin
      let bottleneck = ref infinity in
      let node = ref dst in
      while !node <> src do
        bottleneck := Float.min !bottleneck residual.{pred.(!node)};
        node := from.(!node)
      done;
      if !bottleneck <= eps then blocked := true
      else begin
        let send = Float.min !remaining !bottleneck in
        let path = ref [] in
        let node = ref dst in
        while !node <> src do
          let eid = pred.(!node) in
          residual.{eid} <- residual.{eid} -. send;
          usage.{eid} <- usage.{eid} +. send;
          if record then path := eid :: !path;
          node := from.(!node)
        done;
        s.paths <- s.paths + 1;
        (match chunks with
        | None -> ()
        | Some acc ->
          acc := { src; dst; gbps = send; edge_ids = !path } :: !acc);
        remaining := !remaining -. send;
        incr attempts
      end
    end
  done;
  if !remaining <= eps then 0.0 else !remaining

(* The flow the first [m] usage entries of [buf] describe, in one pass
   that packs the nonzero entries at the front of the buffer (each id
   into [residual], exact as a float) and then copies them out at their
   exact size.  It spends the buffer: every call loads all of it again
   before reading it. *)
let flow_of (buf : Sparse.Buf.buf) m =
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  let k = ref 0 in
  for id = 0 to m - 1 do
    let u = usage.{id} in
    if u <> 0.0 then begin
      residual.{!k} <- float_of_int id;
      usage.{!k} <- u;
      incr k
    end
  done;
  let edges = Array.make !k 0 and carried = Array.create_float !k in
  for i = 0 to !k - 1 do
    edges.(i) <- int_of_float residual.{i};
    carried.(i) <- usage.{i}
  done;
  { edges; carried }

let route ?(enabled = fun _ -> true) ?(congestion_alpha = 1.0) g ~demands =
  Metrics.Counter.inc m_routes;
  let n = Graph.node_count g in
  List.iter (validate_demand n) demands;
  let m = Graph.edge_count g in
  let csr = Sparse.of_graph g in
  let s = scratch n in
  let buf = work_buf s m in
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  let enabled_capacity = ref 0.0 in
  for id = 0 to m - 1 do
    usage.{id} <- 0.0;
    if enabled id then begin
      let c = csr.Sparse.capacity.{id} in
      residual.{id} <- c;
      enabled_capacity := !enabled_capacity +. c
    end
    else residual.{id} <- 0.0
  done;
  (* Residual only falls during a solve: an edge without any now never
     passes the search's gate, so the searches walk a compact adjacency
     of the rest. *)
  mark_residual s buf m;
  let adj = compact s csr in
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> compare b a) demands
  in
  let all_chunks = ref [] in
  let unrouted = ref [] in
  List.iter
    (fun ((src, dst, _) as demand) ->
      let leftover =
        route_one s adj ~cap:csr.Sparse.capacity ~buf ~alpha:congestion_alpha
          ~chunks:all_chunks n demand
      in
      if leftover > eps then unrouted := (src, dst, leftover) :: !unrouted)
    sorted;
  flush_counters s;
  {
    feasible = !unrouted = [];
    chunks = Array.of_list (List.rev !all_chunks);
    unrouted = List.rev !unrouted;
    flow = flow_of buf m;
    enabled_capacity = !enabled_capacity;
  }

let usage r eid =
  let { edges; carried } = r.flow in
  let rec find lo hi =
    if lo >= hi then 0.0
    else begin
      let mid = (lo + hi) / 2 in
      let id = edges.(mid) in
      if id = eid then carried.(mid)
      else if id < eid then find (mid + 1) hi
      else find lo mid
    end
  in
  find 0 (Array.length edges)

let max_utilization g r =
  let { edges; carried } = r.flow in
  let worst = ref 0.0 in
  Array.iteri
    (fun i id ->
      let c = (Graph.edge g id).capacity in
      if c > 0.0 then worst := Float.max !worst (carried.(i) /. c))
    edges;
  !worst

let total_routed r =
  Array.fold_left (fun acc c -> acc +. c.gbps) 0.0 r.chunks

(* The edges carrying more than eps, ascending, each with its load. *)
let used_loads r =
  let { edges; carried } = r.flow in
  let used = ref [] in
  for i = Array.length edges - 1 downto 0 do
    if carried.(i) > eps then used := (carried.(i), edges.(i)) :: !used
  done;
  !used

let used_edges r = List.map snd (used_loads r)

(* Load the first [m] entries of [buf] with the residual capacity and
   usage the enabled edges have under [base]'s flow; every other edge
   reads 0.  One pass, merged with the ascending flow. *)
let load_base ~(cap : Sparse.float_slab) ~enabled ~(buf : Sparse.Buf.buf) ~m
    base =
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  let { edges; carried } = base.flow in
  let next = ref 0 in
  for id = 0 to m - 1 do
    let u =
      if !next < Array.length edges && edges.(!next) = id then begin
        incr next;
        carried.(!next - 1)
      end
      else 0.0
    in
    if enabled id then begin
      residual.{id} <- cap.{id} -. u;
      usage.{id} <- u
    end
    else begin
      residual.{id} <- 0.0;
      usage.{id} <- 0.0
    end
  done

let rec crosses failed_edge = function
  | [] -> false
  | eid :: rest -> eid = failed_edge || crosses failed_edge rest

(* Write the indices of [base]'s chunks that cross [failed_edge], in
   chunk order, to the front of [s.crossing] and return how many there
   are; with [kept], collect the other chunks on it, newest first.  A
   batch's index lives in the same slab, but a scan never runs while a
   batch on this domain is being checked. *)
let scan_crossing s ~base ~failed_edge ?kept () =
  let chunks = base.chunks in
  s.crossing <- int_slab_at_least s.crossing (Array.length chunks);
  let crossing = s.crossing in
  let k = ref 0 in
  for i = 0 to Array.length chunks - 1 do
    let c = chunks.(i) in
    if crosses failed_edge c.edge_ids then begin
      crossing.{!k} <- i;
      incr k
    end
    else match kept with None -> () | Some kept -> kept := c :: !kept
  done;
  !k

let rec count_crossings (at : Sparse.int_slab) = function
  | [] -> ()
  | eid :: rest ->
    at.{eid + 1} <- at.{eid + 1} + 1;
    count_crossings at rest

let rec file_crossings (at : Sparse.int_slab) (crossing : Sparse.int_slab) i =
  function
  | [] -> ()
  | eid :: rest ->
    crossing.{at.{eid}} <- i;
    at.{eid} <- at.{eid} + 1;
    file_crossings at crossing i rest

(* Build the batch's crossing index over the first [m] edges in
   [s.crossing_at] and [s.crossing]: for each edge, the indices of the
   base chunks that cross it, in chunk order.  A path crosses each edge
   once, so an edge lists a chunk at most once.  Counting sort: count
   per edge, prefix-sum into starts, file each chunk using the starts
   as cursors (which leaves each at its edge's end), then shift the
   ends back into starts. *)
let index_crossings s ~m chunks =
  s.crossing_at <- int_slab_at_least s.crossing_at (m + 1);
  let at = s.crossing_at in
  for e = 0 to m do
    at.{e} <- 0
  done;
  for i = 0 to Array.length chunks - 1 do
    count_crossings at chunks.(i).edge_ids
  done;
  for e = 1 to m do
    at.{e} <- at.{e} + at.{e - 1}
  done;
  s.crossing <- int_slab_at_least s.crossing at.{m};
  let crossing = s.crossing in
  for i = 0 to Array.length chunks - 1 do
    file_crossings at crossing i chunks.(i).edge_ids
  done;
  for e = m downto 1 do
    at.{e} <- at.{e - 1}
  done;
  at.{0} <- 0

(* Hand [gbps] back to every edge of a displaced path but the failed
   one. *)
let rec give_back (buf : Sparse.Buf.buf) ~failed_edge gbps = function
  | [] -> ()
  | eid :: rest ->
    if eid <> failed_edge then begin
      let residual = buf.Sparse.Buf.residual and usage = buf.Sparse.Buf.usage in
      residual.{eid} <- residual.{eid} +. gbps;
      usage.{eid} <- usage.{eid} -. gbps
    end;
    give_back buf ~failed_edge gbps rest

(* Take [failed_edge] out of [buf] (loaded from [base]), give back the
   capacity held by the chunks that crossed it, [base.chunks.(i)] for
   each [i] in [crossing.{first} .. crossing.{last - 1}], and re-route
   their demand on the residual.  True when all of it fits.  With
   [fresh], collects the new chunks.  The displaced demand is summed
   per pair in the domain's [affected] table and re-routed in its
   iteration order; [Hashtbl.reset] gives the table back its initial 16
   buckets, so that order is a fresh [Hashtbl.create 16]'s. *)
let repair s adj ~cap ~(buf : Sparse.Buf.buf) ~base ~failed_edge
    ~(crossing : Sparse.int_slab) ~first ~last ?fresh n =
  let residual = buf.Sparse.Buf.residual in
  let usage = buf.Sparse.Buf.usage in
  residual.{failed_edge} <- 0.0;
  usage.{failed_edge} <- 0.0;
  let affected = s.affected in
  Hashtbl.reset affected;
  for k = first to last - 1 do
    let c = base.chunks.(crossing.{k}) in
    give_back buf ~failed_edge c.gbps c.edge_ids;
    let key = (c.src, c.dst) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt affected key) in
    Hashtbl.replace affected key (prev +. c.gbps)
  done;
  let ok = ref true in
  Hashtbl.iter
    (fun (src, dst) gbps ->
      if !ok then begin
        let leftover =
          route_one s adj ~cap ~buf ~alpha:1.0 ?chunks:fresh n (src, dst, gbps)
        in
        if leftover > eps then ok := false
      end)
    affected;
  !ok

(* As a single reroute it walks the whole CSR rather than pay for a
   compaction, and finds the crossing chunks in the scan that collects
   the kept ones. *)
let reroute_without_edge ?(enabled = fun _ -> true) g ~base ~failed_edge =
  Metrics.Counter.inc m_reroutes;
  let failed_capacity = (Graph.edge g failed_edge).capacity in
  if usage base failed_edge <= eps then
    (* Nothing crossed the edge: the routing is already valid without
       it; only the available capacity shrinks. *)
    Some
      { base with enabled_capacity = base.enabled_capacity -. failed_capacity }
  else begin
    let csr = Sparse.of_graph g in
    let m = csr.Sparse.edges in
    let s = scratch csr.Sparse.nodes in
    let cap = csr.Sparse.capacity in
    let buf = work_buf s m in
    load_base ~cap ~enabled ~buf ~m base;
    let kept = ref [] and fresh = ref [] in
    let last = scan_crossing s ~base ~failed_edge ~kept () in
    let ok =
      repair s (csr_adjacency csr) ~cap ~buf ~base ~failed_edge
        ~crossing:s.crossing ~first:0 ~last ~fresh csr.Sparse.nodes
    in
    flush_counters s;
    if not ok then None
    else
      Some
        {
          feasible = true;
          chunks = Array.of_list (List.rev_append !kept !fresh);
          unrouted = [];
          flow = flow_of buf m;
          enabled_capacity = base.enabled_capacity -. failed_capacity;
        }
  end

let route_toggle ?(enabled = fun _ -> true) ?(congestion_alpha = 1.0) g
    ~demands ~base toggle =
  let m = Graph.edge_count g in
  let check_edge eid =
    if eid < 0 || eid >= m then invalid_arg "Router.route_toggle: unknown edge"
  in
  match toggle with
  | Remove eid ->
    check_edge eid;
    if not (enabled eid) then
      invalid_arg "Router.route_toggle: Remove of a disabled edge";
    let enabled' id = enabled id && id <> eid in
    let repaired =
      if base.feasible then
        reroute_without_edge ~enabled g ~base ~failed_edge:eid
      else None
    in
    (match repaired with
    | Some r ->
      Metrics.Counter.inc m_toggle_repairs;
      r
    | None ->
      Metrics.Counter.inc m_toggle_scratch;
      route ~enabled:enabled' ~congestion_alpha g ~demands)
  | Add eid ->
    check_edge eid;
    if enabled eid then
      invalid_arg "Router.route_toggle: Add of an enabled edge";
    let enabled' id = enabled id || id = eid in
    if base.feasible then begin
      (* The base flow never touches the new edge, so it stays valid
         verbatim; only the available capacity grows. *)
      Metrics.Counter.inc m_toggle_repairs;
      {
        base with
        enabled_capacity =
          base.enabled_capacity +. (Graph.edge g eid).capacity;
      }
    end
    else begin
      Metrics.Counter.inc m_toggle_scratch;
      route ~enabled:enabled' ~congestion_alpha g ~demands
    end

(* One verdict-only failure check on the calling domain's scratch:
   [load] fills its work buffer with the base state, and no routing is
   built.  With [index], a batch's crossing index, the chunks crossing
   the failed edge are read from it; without, a scan finds them. *)
let check_failure (csr : Sparse.t) adj ~load ?index g ~base failed_edge =
  Metrics.Counter.inc m_reroutes;
  (* An unknown id fails as it does in [reroute_without_edge]. *)
  ignore (Graph.edge g failed_edge);
  if usage base failed_edge <= eps then true
  else begin
    let s = scratch csr.Sparse.nodes in
    let buf = work_buf s csr.Sparse.edges in
    load buf;
    let cap = csr.Sparse.capacity and n = csr.Sparse.nodes in
    let ok =
      match index with
      | Some (at, crossing) ->
        repair s adj ~cap ~buf ~base ~failed_edge ~crossing
          ~first:at.{failed_edge} ~last:at.{failed_edge + 1} n
      | None ->
        let last = scan_crossing s ~base ~failed_edge () in
        repair s adj ~cap ~buf ~base ~failed_edge ~crossing:s.crossing ~first:0
          ~last n
    in
    flush_counters s;
    ok
  end

let survives_failure ?(enabled = fun _ -> true) g ~demands ~base ~failed_edge =
  ignore demands;
  let csr = Sparse.of_graph g in
  check_failure csr (csr_adjacency csr)
    ~load:(fun buf ->
      load_base ~cap:csr.Sparse.capacity ~enabled ~buf ~m:csr.Sparse.edges base)
    g ~base failed_edge

let survives_all_single_failures ?(enabled = fun _ -> true) ?pool ?limit g
    ~demands base =
  ignore demands;
  (* Most-loaded edges are the likeliest to be irreplaceable: check
     them first so infeasible sets fail fast. *)
  let by_load_desc =
    used_loads base
    |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
    |> List.map snd
  in
  let failures =
    match limit with
    | None -> by_load_desc
    | Some k -> List.filteri (fun i _ -> i < k) by_load_desc
  in
  match failures with
  | [] -> true
  | _ :: _ -> (
    let csr = Sparse.of_graph g in
    let m = csr.Sparse.edges in
    (* One base state, one crossing index and one compact adjacency
       serve the whole batch.  They live in this domain's scratch, and
       the checks, wherever they run, only read them.  In a check an
       edge can hold residual only if it is enabled or a base chunk
       crosses it (the failed chunks give their capacity back), so only
       the other half-edges are dropped. *)
    let s = scratch csr.Sparse.nodes in
    s.shared <- at_least s.shared m;
    let shared = s.shared in
    load_base ~cap:csr.Sparse.capacity ~enabled ~buf:shared ~m base;
    mark_residual s shared m;
    index_crossings s ~m base.chunks;
    let at = s.crossing_at in
    for id = 0 to m - 1 do
      if at.{id + 1} > at.{id} then Bytes.set s.keep id '\001'
    done;
    let adj = compact s csr in
    let load (work : Sparse.Buf.buf) =
      let residual = shared.Sparse.Buf.residual in
      let usage = shared.Sparse.Buf.usage in
      for id = 0 to m - 1 do
        work.Sparse.Buf.residual.{id} <- residual.{id};
        work.Sparse.Buf.usage.{id} <- usage.{id}
      done
    in
    let check = check_failure csr adj ~load ~index:(at, s.crossing) g ~base in
    match pool with
    | None ->
      (* The serial path short-circuits at the first irreplaceable edge. *)
      List.for_all check failures
    | Some p ->
      (* Each check reads the shared state and works in its own
         domain's scratch, and the verdict (a conjunction) does not
         depend on evaluation order, so outcomes are identical at every
         pool size.  The pooled path evaluates every edge — no
         short-circuit — trading wasted work on infeasible sets for
         wall-clock on the (common) feasible ones. *)
      Poc_util.Pool.map_list p check failures |> List.for_all Fun.id)
