module Terms = Poc_core.Terms

type suspicion = {
  lmp : int;
  against : against;
  delivery : float;
  baseline : float;
}

and against = Src of int | App of string

(* Mean of (delivered / (offered * congestion_share)) per group: the
   share of loss congestion does NOT explain. *)
let unexplained_ratio (r : Fabric.flow_result) =
  let expected = r.flow.Fabric.gbps *. r.congestion_share in
  if expected <= 0.0 then 1.0 else Float.min 1.0 (r.delivered /. expected)

let group_means results ~key =
  let sums = Hashtbl.create 16 in
  Array.iter
    (fun (r : Fabric.flow_result) ->
      let k = key r in
      let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums k) in
      Hashtbl.replace sums k (s +. unexplained_ratio r, n + 1))
    results;
  Hashtbl.fold
    (fun k (s, n) acc -> (k, s /. float_of_int (max 1 n), n) :: acc)
    sums []

let detect (report : Fabric.report) =
  let threshold = 0.75 in
  (* Partition results by destination LMP. *)
  let by_dst = Hashtbl.create 16 in
  Array.iter
    (fun (r : Fabric.flow_result) ->
      let dst = r.flow.Fabric.dst_member in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_dst dst) in
      Hashtbl.replace by_dst dst (r :: prev))
    report.results;
  let suspicions = ref [] in
  Hashtbl.iter
    (fun dst rs ->
      let results = Array.of_list rs in
      let check make_against key =
        let groups = group_means results ~key in
        match groups with
        | [] | [ _ ] -> () (* nothing to compare against *)
        | _ :: _ :: _ ->
          List.iter
            (fun (k, mean, n) ->
              if n >= 2 then begin
                let others =
                  List.filter (fun (k', _, _) -> k' <> k) groups
                  |> List.map (fun (_, m, _) -> m)
                in
                let baseline =
                  List.fold_left ( +. ) 0.0 others
                  /. float_of_int (List.length others)
                in
                if baseline > 0.0 && mean < threshold *. baseline then
                  suspicions :=
                    { lmp = dst; against = make_against k; delivery = mean;
                      baseline }
                    :: !suspicions
              end)
            groups
      in
      check (fun s -> Src s) (fun r -> r.Fabric.flow.Fabric.src_member);
      check (fun a -> App a) (fun r -> r.Fabric.flow.Fabric.app))
    by_dst;
  List.sort compare !suspicions

let to_observations suspicions =
  List.map
    (fun s ->
      let selector =
        match s.against with
        | Src m -> Terms.By_source m
        | App a -> Terms.By_application a
      in
      let action =
        if s.delivery <= 0.01 then Terms.Block else Terms.Deprioritize
      in
      {
        Terms.actor = s.lmp;
        selector;
        action;
        basis = Terms.Commercial_preference;
      })
    suspicions

let audit report = detect report |> to_observations |> Terms.violations
