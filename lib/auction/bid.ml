type shape =
  | Additive
  | Volume of (int * float) list (* (min_links, factor), sorted desc by min *)
  | Bundles of (int list * float) list

type t = { prices : (int, float) Hashtbl.t; shape : shape }

let check_prices prices =
  let tbl = Hashtbl.create (List.length prices) in
  List.iter
    (fun (id, p) ->
      if p < 0.0 || not (Float.is_finite p) then invalid_arg "Bid: bad price";
      if Hashtbl.mem tbl id then invalid_arg "Bid: duplicate link id";
      Hashtbl.replace tbl id p)
    prices;
  tbl

let additive prices = { prices = check_prices prices; shape = Additive }

let volume_discount prices ~tiers =
  List.iter
    (fun (k, f) ->
      if k < 2 then invalid_arg "Bid.volume_discount: tier threshold < 2";
      if f <= 0.0 || f > 1.0 then invalid_arg "Bid.volume_discount: factor out of (0,1]")
    tiers;
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) tiers in
  { prices = check_prices prices; shape = Volume sorted }

let bundled prices ~bundles =
  let tbl = check_prices prices in
  List.iter
    (fun (ids, rebate) ->
      if rebate < 0.0 then invalid_arg "Bid.bundled: negative rebate";
      let sum =
        List.fold_left
          (fun acc id ->
            match Hashtbl.find_opt tbl id with
            | None -> invalid_arg "Bid.bundled: bundle link not offered"
            | Some p -> acc +. p)
          0.0 ids
      in
      if rebate > sum then invalid_arg "Bid.bundled: rebate exceeds bundle price")
    bundles;
  { prices = tbl; shape = Bundles bundles }

let links t = Hashtbl.fold (fun id _ acc -> id :: acc) t.prices [] |> List.sort compare

let additive_sum t subset =
  List.fold_left
    (fun acc id ->
      match acc with
      | None -> None
      | Some s -> (
        match Hashtbl.find_opt t.prices id with
        | None -> None
        | Some p -> Some (s +. p)))
    (Some 0.0) subset

let cost t subset =
  match additive_sum t subset with
  | None -> infinity
  | Some sum -> (
    match t.shape with
    | Additive -> sum
    | Volume tiers ->
      let k = List.length subset in
      let factor =
        match List.find_opt (fun (min_links, _) -> k >= min_links) tiers with
        | Some (_, f) -> f
        | None -> 1.0
      in
      sum *. factor
    | Bundles bundles ->
      let in_subset id = List.mem id subset in
      let rebate =
        List.fold_left
          (fun acc (ids, r) -> if List.for_all in_subset ids then acc +. r else acc)
          0.0 bundles
      in
      Float.max 0.0 (sum -. rebate))

let single_price t id =
  match Hashtbl.find_opt t.prices id with
  | Some p -> p
  | None -> raise Not_found

let scale t f =
  if f < 0.0 then invalid_arg "Bid.scale: negative factor";
  let prices = Hashtbl.create (Hashtbl.length t.prices) in
  Hashtbl.iter (fun id p -> Hashtbl.replace prices id (p *. f)) t.prices;
  let shape =
    match t.shape with
    | Additive -> Additive
    | Volume tiers -> Volume tiers
    | Bundles bundles -> Bundles (List.map (fun (ids, r) -> (ids, r *. f)) bundles)
  in
  { prices; shape }
