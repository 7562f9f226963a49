type int_slab = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_slab =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  nodes : int;
  edges : int;
  row_start : int_slab;
  col : int_slab;
  eid : int_slab;
  weight : float_slab;
  capacity : float_slab;
}

let int_slab n : int_slab =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let float_slab n : float_slab =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let int_slab_create = int_slab
let float_slab_create = float_slab

(* Counting sort into CSR.  Scanning edges in id order and appending to
   both endpoints reproduces Graph.neighbors' per-node order (ascending
   insertion), which is what keeps algorithms moved onto the CSR
   bit-identical with their list-based predecessors. *)
let build g =
  let n = Graph.node_count g in
  let m = Graph.edge_count g in
  let row_start = int_slab (n + 1) in
  Bigarray.Array1.fill row_start 0;
  let deg = Array.make n 0 in
  for id = 0 to m - 1 do
    let e = Graph.edge g id in
    deg.(e.Graph.u) <- deg.(e.Graph.u) + 1;
    deg.(e.Graph.v) <- deg.(e.Graph.v) + 1
  done;
  let acc = ref 0 in
  for u = 0 to n - 1 do
    row_start.{u} <- !acc;
    acc := !acc + deg.(u)
  done;
  row_start.{n} <- !acc;
  let col = int_slab (2 * m) in
  let eid = int_slab (2 * m) in
  let weight = float_slab (2 * m) in
  let capacity = float_slab m in
  let cursor = Array.make n 0 in
  for u = 0 to n - 1 do
    cursor.(u) <- row_start.{u}
  done;
  for id = 0 to m - 1 do
    let e = Graph.edge g id in
    capacity.{id} <- e.Graph.capacity;
    let put u v =
      let k = cursor.(u) in
      cursor.(u) <- k + 1;
      col.{k} <- v;
      eid.{k} <- id;
      weight.{k} <- e.Graph.weight
    in
    put e.Graph.u e.Graph.v;
    put e.Graph.v e.Graph.u
  done;
  { nodes = n; edges = m; row_start; col; eid; weight; capacity }

(* One compiled CSR per domain, keyed on (physical graph, version).
   Topologies are mutated only while they are generated and then probed
   thousands of times, so a single slot per domain captures virtually
   every hit; a miss is just a rebuild. *)
let slot_key : (Graph.t * int * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let of_graph g =
  let slot = Domain.DLS.get slot_key in
  match !slot with
  | Some (g', version, csr) when g' == g && version = Graph.version g -> csr
  | Some _ | None ->
    let csr = build g in
    slot := Some (g, Graph.version g, csr);
    csr

module Buf = struct
  type buf = { residual : float_slab; usage : float_slab }

  let create edges =
    let buf =
      { residual = float_slab edges; usage = float_slab edges }
    in
    Bigarray.Array1.fill buf.residual 0.0;
    Bigarray.Array1.fill buf.usage 0.0;
    buf
end
