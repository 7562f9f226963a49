module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router

type t = Handle_load | Single_link_failure | Per_pair_failure

let name = function
  | Handle_load -> "#1 load"
  | Single_link_failure -> "#2 single-failure"
  | Per_pair_failure -> "#3 per-pair-failure"

let all = [ Handle_load; Single_link_failure; Per_pair_failure ]

let per_pair_failure_scenario g ~enabled =
  let best = Hashtbl.create 64 in
  Graph.fold_edges
    (fun (e : Graph.edge) () ->
      if enabled e.id then begin
        let key = (min e.u e.v, max e.u e.v) in
        match Hashtbl.find_opt best key with
        | None -> Hashtbl.replace best key e
        | Some (cur : Graph.edge) ->
          if
            e.capacity > cur.capacity
            || (e.capacity = cur.capacity && e.id < cur.id)
          then Hashtbl.replace best key e
      end)
    g ();
  Hashtbl.fold (fun _ (e : Graph.edge) acc -> e.id :: acc) best []
  |> List.sort compare

let satisfied ?pool g ~demands ~enabled rule =
  match rule with
  | Handle_load ->
    let r = Router.route ~enabled g ~demands in
    r.Router.feasible
  | Single_link_failure ->
    let base = Router.route ~enabled g ~demands in
    base.Router.feasible
    && Router.survives_all_single_failures ~enabled ?pool g ~demands base
  | Per_pair_failure ->
    let failed = per_pair_failure_scenario g ~enabled in
    let failed_tbl = Hashtbl.create (List.length failed) in
    List.iter (fun id -> Hashtbl.replace failed_tbl id ()) failed;
    let enabled' id = enabled id && not (Hashtbl.mem failed_tbl id) in
    let r = Router.route ~enabled:enabled' g ~demands in
    r.Router.feasible
