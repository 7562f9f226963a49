module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router
module Log = Poc_obs.Log
module Trace = Poc_obs.Trace
module Metrics = Poc_obs.Metrics
module Pool = Poc_util.Pool

(* Auction work counters: every candidate selection evaluated against
   the acceptability rule, and every marginal-economy (SL without α)
   recomputation behind a Clarke pivot. *)
let m_candidate_evals =
  Metrics.counter ~help:"Candidate selections checked against the rule"
    Metrics.default "poc_vcg_candidate_evals_total"

let m_pivots =
  Metrics.counter ~help:"Marginal-economy recomputations for Clarke pivots"
    Metrics.default "poc_vcg_pivot_recomputations_total"

let m_auctions =
  Metrics.counter ~help:"Full VCG mechanism runs" Metrics.default
    "poc_vcg_auctions_total"

(* Ordered map over an optional pool: [None] is the serial path.  Both
   paths visit elements in list order and return results in list order,
   so for the pure functions the auction hands over the result is
   independent of the pool — that is the whole determinism story. *)
let pool_map_list pool f xs =
  match pool with None -> List.map f xs | Some p -> Pool.map_list p f xs

type problem = {
  graph : Graph.t;
  demands : Router.demand list;
  bids : Bid.t array;
  virtual_prices : (int * float) list;
  rule : Acceptability.t;
}

type selection = { selected : int list; cost : float }

type bp_result = {
  bp : int;
  selected_links : int list;
  bid_cost : float;
  payment : float;
  pob : float;
}

type outcome = {
  selection : selection;
  virtual_cost : float;
  bp_results : bp_result array;
  total_payment : float;
}

type link_owner = Owned_by of int | Virtual of float

(* Dense link-id -> owner table; link ids are graph edge ids. *)
let ownership problem =
  let m = Graph.edge_count problem.graph in
  let table = Array.make m None in
  Array.iteri
    (fun bp bid ->
      List.iter
        (fun id ->
          if id < 0 || id >= m then invalid_arg "Vcg: bid link id not in graph";
          match table.(id) with
          | Some _ -> invalid_arg "Vcg: link offered twice"
          | None -> table.(id) <- Some (Owned_by bp))
        (Bid.links bid))
    problem.bids;
  List.iter
    (fun (id, price) ->
      if id < 0 || id >= m then invalid_arg "Vcg: virtual link id not in graph";
      match table.(id) with
      | Some _ -> invalid_arg "Vcg: virtual link also offered by a BP"
      | None -> table.(id) <- Some (Virtual price))
    problem.virtual_prices;
  table

let validate problem =
  match ownership problem with
  | exception Invalid_argument msg -> Error msg
  | _ -> Ok ()

let owner_of_link problem id =
  let table = ownership problem in
  if id < 0 || id >= Array.length table then None
  else begin
    match table.(id) with
    | Some (Owned_by bp) -> Some bp
    | Some (Virtual _) | None -> None
  end

let link_price problem id =
  let table = ownership problem in
  if id < 0 || id >= Array.length table then raise Not_found;
  match table.(id) with
  | Some (Owned_by bp) -> Bid.single_price problem.bids.(bp) id
  | Some (Virtual price) -> price
  | None -> raise Not_found

let partition_by_owner table links =
  let by_bp = Hashtbl.create 16 in
  let virtual_cost = ref 0.0 in
  List.iter
    (fun id ->
      match table.(id) with
      | Some (Owned_by bp) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_bp bp) in
        Hashtbl.replace by_bp bp (id :: prev)
      | Some (Virtual price) -> virtual_cost := !virtual_cost +. price
      | None -> invalid_arg "Vcg: selection contains unoffered link")
    links;
  (by_bp, !virtual_cost)

let selection_cost_with_table problem table links =
  let by_bp, virtual_cost = partition_by_owner table links in
  let bp_cost =
    Hashtbl.fold
      (fun bp ids acc -> acc +. Bid.cost problem.bids.(bp) ids)
      by_bp 0.0
  in
  bp_cost +. virtual_cost

let selection_cost problem links =
  selection_cost_with_table problem (ownership problem) links

(* --- Greedy selection -------------------------------------------------

   The open algorithm, in stages:

   1. Rank all offered links by price per Gbps and binary-search the
      smallest prefix acceptable under the rule.
   2. Drop links left idle by the routing (verified).
   3. Prune most-expensive-first: incremental re-routing checks under
      rule #1, a bounded number of full rule checks under the failure
      rules.

   Deterministic and bid-independent in structure, as the paper's
   "open algorithm" argument requires. *)

let prune_limit_load = 500

let prune_limit_single_failure = 400

let prune_limit_per_pair = 400

let satisfied ?pool problem ~enabled =
  Metrics.Counter.inc m_candidate_evals;
  Acceptability.satisfied ?pool problem.graph ~demands:problem.demands ~enabled
    problem.rule

(* The one memo layer over the two pure functions of a candidate set
   (its acceptability verdict and its selection cost): a {!Feascache}
   probe.  A selector keeps its candidate set as a bit-string, one
   character per link ('1' in the set, '0' not), which is exactly the
   set's key, so a probe copies it instead of rendering one. *)
let memoized find add cache set compute =
  let key = Bytes.to_string set in
  match find cache key with
  | Some v -> v
  | None ->
    let v = compute () in
    add cache key v;
    v

let optimize_from ~score ?(banned = fun _ -> false) ?init ?(light = false)
    ?cache ?pool problem =
  (* Without a caller's cache, a private one still keeps this call from
     evaluating any candidate set twice.  It never outlives the call, so
     it serves exactly one problem. *)
  let cache =
    match cache with
    | Some c -> c
    | None -> Feascache.create ~digest:"optimize_from"
  in
  let table = ownership problem in
  let m = Array.length table in
  (* Every owned link's price, looked up once. *)
  let prices = Array.make m nan in
  Array.iteri
    (fun id owner ->
      match owner with
      | Some (Owned_by bp) -> prices.(id) <- Bid.single_price problem.bids.(bp) id
      | Some (Virtual p) -> prices.(id) <- p
      | None -> ())
    table;
  let price id = prices.(id) in
  (* The offered ids, ascending, each scored once.  A stable sort on
     the stored scores keeps equal scores in ascending id order, as the
     stable sort of (score, id) pairs it replaces did. *)
  let ranked =
    let offered = ref [] in
    for id = m - 1 downto 0 do
      if table.(id) <> None && not (banned id) then offered := id :: !offered
    done;
    Array.of_list !offered
  in
  let scores = Array.make m nan in
  Array.iter (fun id -> scores.(id) <- score problem price id) ranked;
  Array.stable_sort (fun a b -> Float.compare scores.(a) scores.(b)) ranked;
  let n = Array.length ranked in
  let set = Bytes.make m '0' in
  let enabled id = Bytes.get set id = '1' in
  let put id present = Bytes.set set id (if present then '1' else '0') in
  let set_prefix k =
    Bytes.fill set 0 m '0';
    for i = 0 to k - 1 do
      put ranked.(i) true
    done
  in
  let current_links () =
    let links = ref [] in
    for id = m - 1 downto 0 do
      if enabled id then links := id :: !links
    done;
    !links
  in
  (* The pruning stages re-probe the same sets constantly.  Nested
     submissions from a pool worker run inline, so passing the pool down
     is safe wherever an evaluation happens. *)
  let rule_ok () =
    memoized Feascache.find_feas Feascache.add_feas cache set (fun () ->
        satisfied ?pool problem ~enabled)
  in
  let check_prefix k =
    set_prefix k;
    rule_ok ()
  in
  (* Grow the current set with the cheapest absent candidates (doubling
     batches) until the rule holds, then bisect the additions back to
     the smallest sufficient prefix.  False when even everything fails. *)
  let repair_current () =
    if rule_ok () then true
    else begin
      let cursor = ref 0 in
      let exhausted () = !cursor >= n in
      let added = ref [] in
      let add_batch size =
        let got = ref 0 in
        while !got < size && not (exhausted ()) do
          let id = ranked.(!cursor) in
          incr cursor;
          if not (enabled id) then begin
            put id true;
            added := id :: !added;
            incr got
          end
        done
      in
      let rec grow batch =
        if rule_ok () then true
        else if exhausted () then false
        else begin
          add_batch batch;
          grow (min 1024 (batch * 2))
        end
      in
      let ok = grow 16 in
      (if ok then begin
         match List.rev !added with
         | [] -> ()
         | additions_list ->
           let additions = Array.of_list additions_list in
           let total = Array.length additions in
           let apply keep =
             Array.iteri (fun i id -> put id (i < keep)) additions
           in
           let check keep =
             apply keep;
             rule_ok ()
           in
           let rec bisect lo hi =
             (* invariant: hi works *)
             if lo >= hi then hi
             else begin
               let mid = (lo + hi) / 2 in
               if check mid then bisect lo mid else bisect (mid + 1) hi
             end
           in
           let keep = bisect 0 total in
           apply keep
       end);
      ok
    end
  in
  let initialized =
    match init with
    | Some links ->
      (* Warm start: begin from a known-good selection (minus whatever
         is now banned) and repair. *)
      Bytes.fill set 0 m '0';
      List.iter
        (fun id ->
          if id >= 0 && id < m && table.(id) <> None && not (banned id) then
            put id true)
        links;
      repair_current ()
    | None ->
      if n = 0 || not (check_prefix n) then false
      else begin
        (* Smallest acceptable prefix (acceptability is monotone in the
           link set up to routing-heuristic noise). *)
        let rec bsearch lo hi =
          if lo >= hi then hi
          else begin
            let mid = (lo + hi) / 2 in
            if check_prefix mid then bsearch lo mid else bsearch (mid + 1) hi
          end
        in
        let k = bsearch 1 n in
        (* Start the pruning stages from a wider prefix: the minimal
           acceptable prefix is tight, and giving the pruner twice as
           much cheap material to keep lets it discard expensive links
           that the tight prefix was forced to retain. *)
        set_prefix (min n (2 * k));
        true
      end
  in
  if not initialized then None
  else begin
    (* Drop links idle under load routing (verified under the rule). *)
    let try_free_drop check =
      let base = Router.route ~enabled problem.graph ~demands:problem.demands in
      let used = Hashtbl.create 64 in
      List.iter (fun id -> Hashtbl.replace used id ()) (Router.used_edges base);
      (match problem.rule with
      | Acceptability.Per_pair_failure ->
        (* Scenario victims must stay: they are what fails. *)
        List.iter
          (fun id -> Hashtbl.replace used id ())
          (Acceptability.per_pair_failure_scenario problem.graph ~enabled)
      | Acceptability.Handle_load | Acceptability.Single_link_failure -> ());
      let idle =
        List.filter (fun id -> not (Hashtbl.mem used id)) (current_links ())
      in
      match idle with
      | [] -> ()
      | _ :: _ ->
        List.iter (fun id -> put id false) idle;
        if not (check ()) then
          (* Rare: the idle links were implicit backups; restore. *)
          List.iter (fun id -> put id true) idle
    in
    try_free_drop rule_ok;
    (* Prune, most expensive first.  Rule #1 removals are validated by
       incremental re-routing against a maintained base; the failure
       rules pay a bounded number of full rule checks. *)
    (* Removals validated incrementally are certified by a chain of
       re-routes, but a fresh routing of the final set can still fail
       (the path heuristic is order-sensitive); verify and roll back to
       the longest safe prefix of removals when it does. *)
    let rollback_if_needed removals_rev =
      if not (rule_ok ()) then begin
        let removals = Array.of_list (List.rev removals_rev) in
        let total = Array.length removals in
        let apply keep =
          Array.iteri (fun i id -> put id (i >= keep)) removals
        in
        let check keep =
          apply keep;
          rule_ok ()
        in
        let rec bisect lo hi =
          (* invariant: lo is safe, hi+1 unsafe *)
          if lo >= hi then lo
          else begin
            let mid = (lo + hi + 1) / 2 in
            if check mid then bisect mid hi else bisect lo (mid - 1)
          end
        in
        let keep = bisect 0 (total - 1) in
        apply keep
      end
    in
    let incremental_prune limit =
      let by_price_desc =
        List.sort (fun a b -> compare (price b) (price a)) (current_links ())
      in
      let budgeted = List.filteri (fun i _ -> i < limit) by_price_desc in
      let base =
        ref (Router.route ~enabled problem.graph ~demands:problem.demands)
      in
      let removed = ref [] in
      List.iter
        (fun id ->
          match
            Router.reroute_without_edge ~enabled problem.graph ~base:!base
              ~failed_edge:id
          with
          | None -> ()
          | Some r ->
            put id false;
            removed := id :: !removed;
            base := r)
        budgeted;
      rollback_if_needed !removed
    in
    let polish limit =
      let by_price_desc =
        List.sort (fun a b -> compare (price b) (price a)) (current_links ())
      in
      let budgeted = List.filteri (fun i _ -> i < limit) by_price_desc in
      List.iter
        (fun id ->
          put id false;
          if not (rule_ok ()) then put id true)
        budgeted
    in
    (* Rule #2 deep prune: each removal is validated by an incremental
       re-route plus a spot check that the 25 most-loaded links still
       survive; a final full verification rolls removals back (by
       bisection over the removal sequence) if the cheap checks let a
       violation slip through. *)
    let prune_single_failure limit =
      let by_price_desc =
        List.sort (fun a b -> compare (price b) (price a)) (current_links ())
      in
      let budgeted = List.filteri (fun i _ -> i < limit) by_price_desc in
      let base =
        ref (Router.route ~enabled problem.graph ~demands:problem.demands)
      in
      let removed = ref [] in
      let spot_survives r =
        Router.survives_all_single_failures ~enabled ?pool ~limit:25
          problem.graph ~demands:problem.demands r
      in
      List.iter
        (fun id ->
          match
            Router.reroute_without_edge ~enabled problem.graph ~base:!base
              ~failed_edge:id
          with
          | None -> ()
          | Some r ->
            put id false;
            if spot_survives r then begin
              base := r;
              removed := id :: !removed
            end
            else put id true)
        budgeted;
      rollback_if_needed !removed
    in
    let prune_pass () =
      match problem.rule with
      | Acceptability.Handle_load ->
        incremental_prune (if light then 128 else prune_limit_load)
      | Acceptability.Single_link_failure ->
        prune_single_failure (if light then 96 else prune_limit_single_failure)
      | Acceptability.Per_pair_failure ->
        polish (if light then 96 else prune_limit_per_pair)
    in
    prune_pass ();
    (* Improvement rounds: widen the candidate pool with the next
       cheapest absent links and prune again; keep rounds that lower
       the cost.  This closes most of the greedy's optimality gap,
       which matters because the Clarke pivots are differences of two
       such costs. *)
    let current_cost () =
      memoized Feascache.find_cost Feascache.add_cost cache set (fun () ->
          selection_cost_with_table problem table (current_links ()))
    in
    let snapshot () = Bytes.copy set in
    let restore saved = Bytes.blit saved 0 set 0 m in
    let widen () =
      let want = max 64 (List.length (current_links ()) / 2) in
      let added = ref 0 in
      Array.iter
        (fun id ->
          if !added < want && not (enabled id) then begin
            put id true;
            incr added
          end)
        ranked
    in
    let max_rounds =
      if light then 1
      else begin
        match problem.rule with
        | Acceptability.Handle_load -> 3
        | Acceptability.Single_link_failure | Acceptability.Per_pair_failure -> 1
      end
    in
    let rec improve round best_cost =
      if round >= max_rounds then ()
      else begin
        let saved = snapshot () in
        widen ();
        try_free_drop rule_ok;
        prune_pass ();
        let cost = current_cost () in
        if cost < best_cost -. (0.001 *. Float.abs best_cost) then
          improve (round + 1) cost
        else restore saved
      end
    in
    improve 0 (current_cost ());
    let selected = current_links () in
    Some { selected; cost = selection_cost_with_table problem table selected }
  end

(* Two deterministic rankings, the cheaper result wins.  Price per Gbps
   favors big trunks; absolute price favors links sized to the actual
   demands — each dominates on some instances, and taking the minimum
   substantially closes the gap to the optimum (and keeps the Clarke
   pivots C(SL−α) − C(SL) from going negative as often). *)
let unit_price_score problem price id =
  let cap = (Graph.edge problem.graph id).capacity in
  if cap <= 0.0 then infinity else price id /. cap

let absolute_price_score _problem price id = price id

let select_greedy_single ~ranking ?banned ?cache ?pool problem =
  let score =
    match ranking with
    | `Unit_price -> unit_price_score
    | `Absolute_price -> absolute_price_score
  in
  optimize_from ~score ?banned ?cache ?pool problem

let select_greedy ?banned ?cache ?pool problem =
  (* The two arms are fully independent optimizations over immutable
     inputs, so they run concurrently when a pool is available; the
     fold keeps the serial tie-break (first arm wins ties). *)
  let candidates =
    pool_map_list pool
      (fun ranking ->
        select_greedy_single ~ranking ?banned ?cache ?pool problem)
      [ `Unit_price; `Absolute_price ]
    |> List.filter_map Fun.id
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
    Some
      (List.fold_left
         (fun best s -> if s.cost < best.cost then s else best)
         (List.hd candidates) (List.tl candidates))

let select_warm ?banned ~base ?cache ?pool problem =
  (* Light pruning: the base is already pruned, so only the repair
     additions and the links freed by the ban need attention. *)
  optimize_from ~score:unit_price_score ?banned ~init:base.selected ~light:true
    ?cache ?pool problem

(* --- Exact selection (small instances) -------------------------------- *)

let select_exact_limit = 22

(* Masks per work item when the enumeration is sharded across a pool.
   Fixed (not a function of the pool size) so the per-chunk evaluation
   pattern — and with it every cached verdict — is the same at every
   [--jobs] value. *)
let select_exact_chunk = 1 lsl 16

let select_exact ?(banned = fun _ -> false) ?cache ?pool problem =
  let table = ownership problem in
  let m = Array.length table in
  let offered =
    List.filter
      (fun id -> table.(id) <> None && not (banned id))
      (List.init m Fun.id)
    |> Array.of_list
  in
  let n = Array.length offered in
  if n > select_exact_limit then
    invalid_arg
      (Printf.sprintf "Vcg.select_exact: more than %d offered links"
         select_exact_limit);
  (* Evaluate masks [lo, hi), keeping the cheapest acceptable subset;
     ties go to the smallest mask.  That total order makes the scan an
     associative minimum, so sharding the range across domains and
     folding the per-shard winners in range order is bit-identical to
     the serial scan. *)
  let eval_range (lo, hi) =
    let set = Bytes.make m '0' in
    let enabled id = Bytes.get set id = '1' in
    let best = ref None in
    for mask = lo to hi - 1 do
      Bytes.fill set 0 m '0';
      let links = ref [] in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then begin
          Bytes.set set offered.(i) '1';
          links := offered.(i) :: !links
        end
      done;
      let links = List.sort compare !links in
      let cost = selection_cost_with_table problem table links in
      let better =
        match !best with None -> true | Some (c, _, _) -> cost < c
      in
      if better then begin
        let ok =
          match cache with
          | None -> satisfied problem ~enabled
          | Some c ->
            memoized Feascache.find_feas Feascache.add_feas c set (fun () ->
                satisfied problem ~enabled)
        in
        if ok then best := Some (cost, mask, links)
      end
    done;
    !best
  in
  let total = 1 lsl n in
  let results =
    match pool with
    | Some p when total > select_exact_chunk ->
      let nchunks = (total + select_exact_chunk - 1) / select_exact_chunk in
      let ranges =
        List.init nchunks (fun i ->
            ( i * select_exact_chunk,
              min total ((i + 1) * select_exact_chunk) ))
      in
      Pool.map_list p eval_range ranges
    | Some _ | None -> [ eval_range (0, total) ]
  in
  let best =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, r -> r
        | acc, None -> acc
        | Some (c, mk, _), Some (c', mk', _) ->
          if c' < c || (c' = c && mk' < mk) then r else acc)
      None results
  in
  match best with
  | None -> None
  | Some (cost, _, links) -> Some { selected = links; cost }

(* --- Full mechanism ---------------------------------------------------- *)

let run ?select ?pool problem =
  Metrics.Counter.inc m_auctions;
  let sp = Trace.span "vcg.run" in
  (* One shared cache per settle loop: the cold selection and every
     Clarke pivot probe the same problem (only the banned set varies),
     so verdicts and costs keyed on the enabled bit-string carry over.
     Purely an evaluation-count optimization — outcomes are identical
     with the cache switched off. *)
  let cache = Some (Feascache.create ~digest:"vcg") in
  (* Fold worker-shard discoveries into the merged table whenever the
     workers are known quiescent, so the next round reads them
     lock-free. *)
  let join_cache () = Option.iter Feascache.join cache in
  let cold =
    match select with
    | Some s -> fun () -> s ?banned:None ?cache problem
    | None -> fun () -> select_greedy ?cache ?pool problem
  in
  let cold () =
    let sel_sp = Trace.span "vcg.select" in
    let r = cold () in
    (if Trace.enabled () then
       match r with
       | Some s ->
         Trace.add_attr sel_sp "selected" (Trace.Int (List.length s.selected));
         Trace.add_attr sel_sp "cost" (Trace.Float s.cost)
       | None -> Trace.add_attr sel_sp "infeasible" (Trace.Bool true));
    Trace.finish sel_sp;
    r
  in
  (* Pivot selections: warm-started from the current SL by default —
     both faster and far less noisy than re-deriving from scratch, since
     C(SL−α) then differs from C(SL) only by α's actual replacement
     cost.  A caller-provided selector (e.g. the exact optimizer in
     tests) is honored verbatim. *)
  let without_selection base bp =
    Metrics.Counter.inc m_pivots;
    let mine = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace mine id ()) (Bid.links problem.bids.(bp));
    let banned id = Hashtbl.mem mine id in
    match select with
    | Some s -> s ?banned:(Some banned) ?cache problem
    | None ->
      (* Two views of the world without α: repair the current SL
         (cheap, finds local substitutes) and re-derive from scratch
         (restructures routes when α carried trunk capacity); the
         mechanism uses the better one.  When pivots themselves run on
         pool workers, these nested submissions are detected and run
         inline — same results, no deadlock. *)
      let candidates =
        pool_map_list pool
          (fun pick -> pick ())
          [
            (fun () -> select_warm ~banned ~base ?cache ?pool problem);
            (fun () ->
              select_greedy_single ~ranking:`Unit_price ~banned ?cache ?pool
                problem);
          ]
        |> List.filter_map Fun.id
      in
      (match candidates with
      | [] -> None
      | first :: rest ->
        Some
          (List.fold_left
             (fun best s -> if s.cost < best.cost then s else best)
             first rest))
  in
  let finish_with result =
    (if Trace.enabled () then
       match result with
       | Some o ->
         Trace.add_attr sp "total_payment" (Trace.Float o.total_payment);
         Trace.add_attr sp "selected"
           (Trace.Int (List.length o.selection.selected))
       | None -> Trace.add_attr sp "infeasible" (Trace.Bool true));
    Trace.finish sp;
    result
  in
  let cold_result = cold () in
  join_cache ();
  match cold_result with
  | None -> finish_with None
  | Some sl0 ->
    let table = ownership problem in
    let winners selection =
      let by_bp, _ = partition_by_owner table selection.selected in
      Hashtbl.fold (fun bp _ acc -> bp :: acc) by_bp []
    in
    (* Every SL−α is also acceptable for the unrestricted problem, so
       pivot exploration can stumble on a cheaper solution; adopt it and
       recompute (bounded — each adoption strictly lowers the cost). *)
    let rec settle current round =
      (* One marginal economy per winning BP — the embarrassingly
         parallel heart of the mechanism.  Winner order is fixed before
         the fan-out and results come back in that order, so the
         best-improvement fold below ties off exactly as it does
         serially. *)
      let results =
        pool_map_list pool
          (fun bp -> (bp, without_selection current bp))
          (winners current)
      in
      join_cache ();
      let best_improvement =
        List.fold_left
          (fun acc (_, s) ->
            match (acc, s) with
            | None, Some s when s.cost < current.cost -. 1e-9 -> Some s
            | Some a, Some s when s.cost < a.cost -. 1e-9 -> Some s
            | _, _ -> acc)
          None results
      in
      match best_improvement with
      | Some better when round < 4 -> settle better (round + 1)
      | Some _ | None -> (current, results)
    in
    let piv_sp = Trace.span "vcg.pivots" in
    let sl, without_results = settle sl0 0 in
    Trace.finish piv_sp;
    let without bp = List.assoc_opt bp without_results in
    let by_bp, virtual_cost = partition_by_owner table sl.selected in
    let bp_results =
      Array.mapi
        (fun bp bid ->
          let selected_links =
            Option.value ~default:[] (Hashtbl.find_opt by_bp bp)
            |> List.sort compare
          in
          match selected_links with
          | [] -> { bp; selected_links = []; bid_cost = 0.0; payment = 0.0; pob = 0.0 }
          | _ :: _ ->
            let bid_cost = Bid.cost bid selected_links in
            let pivot =
              match without bp with
              | Some (Some w) -> Float.max 0.0 (w.cost -. sl.cost)
              | Some None | None ->
                Log.warn (fun () ->
                    Printf.sprintf
                      "SL without BP %d is unacceptable; clamping pivot to 0"
                      bp);
                0.0
            in
            let payment = bid_cost +. pivot in
            let pob = if bid_cost > 0.0 then pivot /. bid_cost else 0.0 in
            { bp; selected_links; bid_cost; payment; pob })
        problem.bids
    in
    let total_payment =
      Array.fold_left (fun acc r -> acc +. r.payment) virtual_cost bp_results
    in
    finish_with (Some { selection = sl; virtual_cost; bp_results; total_payment })

let run_pay_as_bid ?select ?pool problem =
  let cache = Some (Feascache.create ~digest:"vcg") in
  let select =
    match select with
    | Some s -> fun p -> s ?banned:None ?cache p
    | None -> fun p -> select_greedy ?cache ?pool p
  in
  match select problem with
  | None -> None
  | Some sl ->
    let table = ownership problem in
    let by_bp, virtual_cost = partition_by_owner table sl.selected in
    let bp_results =
      Array.mapi
        (fun bp bid ->
          let selected_links =
            Option.value ~default:[] (Hashtbl.find_opt by_bp bp)
            |> List.sort compare
          in
          let bid_cost =
            match selected_links with [] -> 0.0 | _ :: _ -> Bid.cost bid selected_links
          in
          { bp; selected_links; bid_cost; payment = bid_cost; pob = 0.0 })
        problem.bids
    in
    let total_payment =
      Array.fold_left (fun acc r -> acc +. r.payment) virtual_cost bp_results
    in
    Some { selection = sl; virtual_cost; bp_results; total_payment }
