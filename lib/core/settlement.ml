module Vcg = Poc_auction.Vcg
module Wan = Poc_topology.Wan

type party =
  | Poc
  | Bp_party of int
  | External_isp_party of int
  | Member_party of int
  | Users_of of int

type entry = { src : party; dst : party; amount : float; what : string }

type ledger = {
  entries : entry list;
  usage_price : float;
  retail_multiplier : float;
}

let of_plan (plan : Planner.plan) ?(margin = 0.0) ?(retail_multiplier = 2.5) () =
  if margin < 0.0 then invalid_arg "Settlement.of_plan: negative margin";
  if retail_multiplier < 1.0 then
    invalid_arg "Settlement.of_plan: retail multiplier below 1";
  let entries = ref [] in
  let add src dst amount what =
    if amount > 0.0 then entries := { src; dst; amount; what } :: !entries
  in
  (* POC -> BPs: the auction payments. *)
  Array.iter
    (fun (r : Vcg.bp_result) ->
      add Poc (Bp_party r.bp) r.payment "bandwidth lease (VCG payment)")
    plan.outcome.Vcg.bp_results;
  (* POC -> external ISPs: contracted virtual links in the selection. *)
  let selected = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace selected id ())
    plan.outcome.Vcg.selection.selected;
  Array.iter
    (fun (isp : Wan.external_isp) ->
      let amount =
        Array.to_list isp.virtual_link_ids
        |> List.filter (Hashtbl.mem selected)
        |> List.fold_left
             (fun acc id -> acc +. plan.wan.links.(id).Wan.true_cost)
             0.0
      in
      add Poc (External_isp_party isp.isp_id) amount "virtual links (contract)")
    plan.wan.external_isps;
  let poc_spend =
    List.fold_left
      (fun acc e -> match e.src with Poc -> acc +. e.amount | _ -> acc)
      0.0 !entries
  in
  (* Members -> POC at the break-even posted price. *)
  let total_usage =
    List.fold_left
      (fun acc (m : Member.t) -> acc +. m.Member.monthly_gbps)
      0.0 plan.members
  in
  let usage_price =
    if total_usage <= 0.0 then 0.0
    else poc_spend *. (1.0 +. margin) /. total_usage
  in
  List.iter
    (fun (m : Member.t) ->
      let bill = m.Member.monthly_gbps *. usage_price in
      add (Member_party m.Member.id) Poc bill "POC usage";
      (* Retail: users pay their LMP; CSP members bill their own
         subscribers out of band (application revenue, not modeled
         here). *)
      if m.Member.kind = Member.Lmp then
        add (Users_of m.Member.id) (Member_party m.Member.id)
          (bill *. retail_multiplier) "retail access")
    plan.members;
  { entries = List.rev !entries; usage_price; retail_multiplier }

let net ledger party =
  List.fold_left
    (fun acc e ->
      let acc = if e.dst = party then acc +. e.amount else acc in
      if e.src = party then acc -. e.amount else acc)
    0.0 ledger.entries

let poc_net ledger = net ledger Poc

let parties ledger =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl e.src ();
      Hashtbl.replace tbl e.dst ())
    ledger.entries;
  Hashtbl.fold (fun p () acc -> p :: acc) tbl []

let conservation ledger =
  List.fold_left (fun acc p -> acc +. net ledger p) 0.0 (parties ledger)

let check ledger =
  let tolerance = 1e-6 in
  let problems = ref [] in
  let bad msg = problems := msg :: !problems in
  let c = conservation ledger in
  (* [not (<=)] rather than [>] so a NaN conservation sum also fails. *)
  if not (Float.abs c <= tolerance) then
    bad (Printf.sprintf "ledger nets to %.9f, expected 0 within %g" c tolerance);
  if not (Float.is_finite ledger.usage_price) then
    bad (Printf.sprintf "posted usage price %f is not finite" ledger.usage_price);
  match List.rev !problems with
  | [] -> Ok ()
  | ps -> Error ("Settlement: " ^ String.concat "; " ps)

let party_name (plan : Planner.plan) = function
  | Poc -> "POC"
  | Bp_party b -> plan.wan.bps.(b).Wan.bp_name
  | External_isp_party e -> plan.wan.external_isps.(e).Wan.isp_name
  | Member_party id -> (
    match List.find_opt (fun (m : Member.t) -> m.Member.id = id) plan.members with
    | Some m -> m.Member.name
    | None -> Printf.sprintf "member-%d" id)
  | Users_of id -> (
    match List.find_opt (fun (m : Member.t) -> m.Member.id = id) plan.members with
    | Some m -> Printf.sprintf "users(%s)" m.Member.name
    | None -> Printf.sprintf "users(member-%d)" id)

let render plan ledger =
  let rows =
    parties ledger
    |> List.map (fun p -> (party_name plan p, net ledger p))
    |> List.filter (fun (_, v) -> Float.abs v > 1e-6)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (name, v) -> [ name; Printf.sprintf "%+.2f" v ])
  in
  Poc_util.Table.render
    ~align:[ Poc_util.Table.Left; Poc_util.Table.Right ]
    ~header:[ "party"; "net $/month" ] rows
