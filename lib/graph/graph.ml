type node = int

type edge = { id : int; u : node; v : node; weight : float; capacity : float }

type t = {
  mutable nodes : int;
  mutable edges : edge array;
  mutable edge_len : int;
  mutable adjacency : int list array; (* node -> incident edge ids *)
  mutable version : int; (* bumped on every mutation; keys CSR caches *)
}

let create () =
  { nodes = 0; edges = [||]; edge_len = 0; adjacency = [||]; version = 0 }

let version g = g.version

let grow_adjacency g n =
  let cap = Array.length g.adjacency in
  if n > cap then begin
    let ncap = max 16 (max n (2 * cap)) in
    let narr = Array.make ncap [] in
    Array.blit g.adjacency 0 narr 0 cap;
    g.adjacency <- narr
  end

let add_node g =
  let id = g.nodes in
  g.nodes <- id + 1;
  g.version <- g.version + 1;
  grow_adjacency g g.nodes;
  id

let add_nodes g n =
  for _ = 1 to n do
    ignore (add_node g)
  done

let node_count g = g.nodes

let edge_count g = g.edge_len

let grow_edges g e =
  let cap = Array.length g.edges in
  if g.edge_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let narr = Array.make ncap e in
    Array.blit g.edges 0 narr 0 g.edge_len;
    g.edges <- narr
  end

let add_edge g u v ~weight ~capacity =
  if u < 0 || u >= g.nodes || v < 0 || v >= g.nodes then
    invalid_arg "Graph.add_edge: unknown endpoint";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if weight < 0.0 || capacity < 0.0 then
    invalid_arg "Graph.add_edge: negative weight or capacity";
  let id = g.edge_len in
  let e = { id; u; v; weight; capacity } in
  grow_edges g e;
  g.edges.(id) <- e;
  g.edge_len <- id + 1;
  g.version <- g.version + 1;
  g.adjacency.(u) <- id :: g.adjacency.(u);
  g.adjacency.(v) <- id :: g.adjacency.(v);
  id

let edge g id =
  if id < 0 || id >= g.edge_len then invalid_arg "Graph.edge: unknown id";
  g.edges.(id)

let edges g = Array.sub g.edges 0 g.edge_len

let other_endpoint e n =
  if e.u = n then e.v
  else if e.v = n then e.u
  else invalid_arg "Graph.other_endpoint: node not on edge"

let incident g n =
  if n < 0 || n >= g.nodes then invalid_arg "Graph.incident: unknown node";
  List.rev_map (fun id -> g.edges.(id)) g.adjacency.(n)

let neighbors g n = List.map (fun e -> (other_endpoint e n, e)) (incident g n)

let degree g n =
  if n < 0 || n >= g.nodes then invalid_arg "Graph.degree: unknown node";
  List.length g.adjacency.(n)

let fold_edges f g init =
  let acc = ref init in
  for i = 0 to g.edge_len - 1 do
    acc := f g.edges.(i) !acc
  done;
  !acc
