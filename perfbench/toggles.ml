(* The E19 feasibility-query inputs, built by the same rules as
   bench/e19_scale.ml so the `scale` workload answers exactly E19's
   questions: a fixed demand set spread over the node range and a
   toggle sequence mixing links that carry base flow with links spread
   over the whole id space. *)

module H = Harness
module Trace = Poc_obs.Trace
module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router

let make_demands g ~count =
  let n = Graph.node_count g in
  List.init count (fun i ->
      let a = (i * 7919) mod n in
      let b = (a + 1 + ((i * 104729) mod (n - 1))) mod n in
      (min a b, max a b, 4.0 +. float_of_int (i mod 5)))

let make_toggles ~m ~used ~count =
  let used = Array.of_list used in
  let seen = Hashtbl.create count in
  let out = ref [] in
  let push e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      out := e :: !out
    end
  in
  for i = 0 to (count / 2) - 1 do
    if Array.length used > 0 then push used.(i * 31 mod Array.length used)
  done;
  let i = ref 0 in
  while List.length !out < count && !i < m do
    push (!i * 6151 mod m);
    incr i
  done;
  Array.of_list (List.rev !out)

(* One base routing over the full offer set and a toggle sequence
   against it, in an order drawn from [seed], with the verdict each
   query gave at set-up. *)
type t = {
  graph : Graph.t;
  demands : Router.demand list;
  base : Router.routing;
  edges : int array;
  verdicts : bool array;
}

let query t eid =
  Router.route_toggle t.graph ~demands:t.demands ~base:t.base (Router.Remove eid)

let create graph ~demands ~count ~seed =
  let base = Router.route graph ~demands in
  let edges =
    make_toggles ~m:(Graph.edge_count graph) ~used:(Router.used_edges base) ~count
  in
  Poc_util.Prng.shuffle (Poc_util.Prng.create seed) edges;
  let t = { graph; demands; base; edges; verdicts = [||] } in
  { t with verdicts = Array.map (fun eid -> (query t eid).Router.feasible) edges }

(* E19's superset property, once per run and outside timing: whenever a
   from-scratch route of the toggled set is feasible, the incremental
   answer must be too. *)
let superset_holds t =
  Array.for_all2
    (fun eid repaired ->
      repaired
      || not
           (Router.route ~enabled:(fun id -> id <> eid) t.graph ~demands:t.demands)
             .Router.feasible)
    t.edges t.verdicts

(* One timed pass over the whole sequence, returning its wall time;
   each answer must repeat the set-up verdict.  With [samples] each
   query's own time is kept there, inside a benchmark span. *)
let pass ?samples t (checks : H.ledger) =
  let total = ref 0.0 in
  Array.iteri
    (fun i eid ->
      let r, dt =
        match samples with
        | None -> H.time (fun () -> query t eid)
        | Some s ->
          let r, dt =
            H.time (fun () ->
                Trace.with_span "op.toggle" (fun () ->
                    Trace.with_span "Router.route_toggle" (fun () -> query t eid)))
          in
          H.add s dt;
          (r, dt)
      in
      total := !total +. dt;
      H.record checks
        ~ok:(r.Router.feasible = t.verdicts.(i))
        (Printf.sprintf "toggle of link %d changed its verdict" eid))
    t.edges;
  !total
