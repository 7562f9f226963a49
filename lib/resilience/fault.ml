module Prng = Poc_util.Prng
module Wan = Poc_topology.Wan

type phase = Pre_auction | Pre_settle | Post_settle

let phase_to_string = function
  | Pre_auction -> "pre_auction"
  | Pre_settle -> "pre_settle"
  | Post_settle -> "post_settle"

let phase_of_string = function
  | "pre_auction" -> Some Pre_auction
  | "pre_settle" -> Some Pre_settle
  | "post_settle" -> Some Post_settle
  | _ -> None

type spec =
  | Link_failure of { at_epoch : int; count : int; duration : int }
  | Bp_bankruptcy of { at_epoch : int; bp : int }
  | Capacity_recall of { at_epoch : int; bp : int; fraction : float; duration : int }
  | Offer_shrinkage of { at_epoch : int; fraction : float }
  | Traffic_surge of { at_epoch : int; factor : float; duration : int }
  | Crash of { at_epoch : int; phase : phase }
  | Storage of { at_epoch : int; phase : phase; fault : Disk.fault }

let spec_fired ~epoch ~phase = function
  | Crash { at_epoch; phase = p } -> at_epoch = epoch && p = phase
  | Storage { at_epoch; phase = p; _ } -> at_epoch = epoch && p = phase
  | _ -> false

type event =
  | Link_down of int
  | Link_up of int
  | Bp_exit of int
  | Withdraw of int list
  | Surge of float
  | Surge_over of float
  | Crash_point of phase
  | Disk_point of phase * Disk.fault

type schedule = { timeline : (int * event) list }

let spec_problems (wan : Wan.t) specs =
  let n_bps = Array.length wan.Wan.bps in
  let bad = ref [] in
  let check ok msg = if not ok then bad := msg :: !bad in
  List.iteri
    (fun i spec ->
      let where field = Printf.sprintf "spec %d: %s" i field in
      let epoch e = check (e >= 1) (where "at_epoch must be >= 1") in
      let duration d = check (d >= 1) (where "duration must be >= 1") in
      let bp_id bp =
        check (bp >= 0 && bp < n_bps)
          (where (Printf.sprintf "unknown BP %d (WAN has %d)" bp n_bps))
      in
      let fraction f =
        check
          (Float.is_finite f && f >= 0.0 && f <= 1.0)
          (where "fraction must be in [0,1]")
      in
      match spec with
      | Link_failure { at_epoch; count; duration = d } ->
        epoch at_epoch;
        duration d;
        check (count >= 1) (where "count must be >= 1")
      | Bp_bankruptcy { at_epoch; bp } ->
        epoch at_epoch;
        bp_id bp
      | Capacity_recall { at_epoch; bp; fraction = f; duration = d } ->
        epoch at_epoch;
        bp_id bp;
        fraction f;
        duration d
      | Offer_shrinkage { at_epoch; fraction = f } ->
        epoch at_epoch;
        fraction f
      | Traffic_surge { at_epoch; factor; duration = d } ->
        epoch at_epoch;
        duration d;
        check
          (Float.is_finite factor && factor > 0.0)
          (where "factor must be positive")
      | Crash { at_epoch; phase = _ } -> epoch at_epoch
      | Storage { at_epoch; phase = _; fault } -> (
        epoch at_epoch;
        match fault with
        | Disk.Short_write { drop } | Disk.Lying_fsync { drop } ->
          check (drop >= 1) (where "drop must be >= 1")
        | Disk.Torn_rename | Disk.Corrupt_byte _ -> ()))
    specs;
  List.rev !bad

let validate wan specs =
  match spec_problems wan specs with
  | [] -> Ok ()
  | problems -> Error ("Fault: " ^ String.concat "; " problems)

let all_bp_link_ids (wan : Wan.t) =
  Array.to_list wan.Wan.bps
  |> List.concat_map (fun (bp : Wan.bp) -> Array.to_list bp.Wan.link_ids)
  |> List.sort_uniq compare

let pick_links rng pool count =
  let arr = Array.of_list pool in
  let k = min count (Array.length arr) in
  Prng.sample_without_replacement rng k arr
  |> Array.to_list |> List.sort compare

let compile wan ~seed specs =
  match validate wan specs with
  | Error msg -> Error msg
  | Ok () ->
    let rng = Prng.create seed in
    let timeline = ref [] in
    let emit epoch ev = timeline := (epoch, ev) :: !timeline in
    List.iter
      (fun spec ->
        match spec with
        | Link_failure { at_epoch; count; duration } ->
          let picked = pick_links rng (all_bp_link_ids wan) count in
          List.iter
            (fun id ->
              emit at_epoch (Link_down id);
              emit (at_epoch + duration) (Link_up id))
            picked
        | Bp_bankruptcy { at_epoch; bp } -> emit at_epoch (Bp_exit bp)
        | Capacity_recall { at_epoch; bp; fraction; duration } ->
          let pool = Wan.bp_link_ids wan bp in
          let count =
            int_of_float (ceil (fraction *. float_of_int (List.length pool)))
          in
          let picked = pick_links rng pool count in
          List.iter
            (fun id ->
              emit at_epoch (Link_down id);
              emit (at_epoch + duration) (Link_up id))
            picked
        | Offer_shrinkage { at_epoch; fraction } ->
          let pool = all_bp_link_ids wan in
          let count =
            int_of_float (ceil (fraction *. float_of_int (List.length pool)))
          in
          emit at_epoch (Withdraw (pick_links rng pool count))
        | Traffic_surge { at_epoch; factor; duration } ->
          emit at_epoch (Surge factor);
          emit (at_epoch + duration) (Surge_over factor)
        (* No random draw: adding a Crash or Storage spec never
           perturbs the links the other specs pick, so a
           crashed-and-resumed run is comparable to the same schedule
           without the crash.  (Corrupt_byte carries its own seed.) *)
        | Crash { at_epoch; phase } -> emit at_epoch (Crash_point phase)
        | Storage { at_epoch; phase; fault } ->
          emit at_epoch (Disk_point (phase, fault)))
      specs;
    (* Stable sort keeps compile order within an epoch. *)
    Ok { timeline = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !timeline) }

let none = { timeline = [] }

let at schedule epoch =
  List.filter_map
    (fun (e, ev) -> if e = epoch then Some ev else None)
    schedule.timeline

let events schedule = schedule.timeline

let event_to_string = function
  | Link_down id -> Printf.sprintf "link_down(%d)" id
  | Link_up id -> Printf.sprintf "link_up(%d)" id
  | Bp_exit bp -> Printf.sprintf "bp_exit(%d)" bp
  | Withdraw ids ->
    Printf.sprintf "withdraw(%s)"
      (String.concat "," (List.map string_of_int ids))
  | Surge f -> Printf.sprintf "surge(x%.2f)" f
  | Surge_over f -> Printf.sprintf "surge_over(x%.2f)" f
  | Crash_point phase -> Printf.sprintf "crash(%s)" (phase_to_string phase)
  | Disk_point (phase, fault) ->
    Printf.sprintf "disk(%s,%s)" (phase_to_string phase)
      (Disk.fault_to_string fault)

let describe schedule epoch =
  (* Mass events (a full-portfolio recall downs a hundred links at
     once) are compressed to a count so the incident log stays
     readable: "link_down x139" instead of 139 entries. *)
  let kind = function
    | Link_down _ -> "link_down"
    | Link_up _ -> "link_up"
    | Bp_exit _ -> "bp_exit"
    | Withdraw _ -> "withdraw"
    | Surge _ -> "surge"
    | Surge_over _ -> "surge_over"
    | Crash_point _ -> "crash"
    | Disk_point _ -> "disk"
  in
  (* Crash and disk-fault points kill the process, they are not market
     faults: hiding them here keeps the incident log of a
     crashed-and-resumed run byte-identical to the same schedule run
     uninterrupted. *)
  match
    at schedule epoch
    |> List.filter (function
         | Crash_point _ | Disk_point _ -> false
         | _ -> true)
  with
  | [] -> "-"
  | evs ->
    let groups = ref [] in
    List.iter
      (fun ev ->
        let k = kind ev in
        match List.assoc_opt k !groups with
        | Some cell -> cell := ev :: !cell
        | None -> groups := !groups @ [ (k, ref [ ev ]) ])
      evs;
    !groups
    |> List.map (fun (k, cell) ->
           match List.rev !cell with
           | [ single ] -> event_to_string single
           | many when List.length many <= 4 ->
             String.concat "; " (List.map event_to_string many)
           | many -> Printf.sprintf "%s x%d" k (List.length many))
    |> String.concat "; "
