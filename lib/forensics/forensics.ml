module Flight = Poc_obs.Flight
module Metrics = Poc_obs.Metrics
module Black_box = Poc_resilience.Black_box
module Disk = Poc_resilience.Disk
module Journal = Poc_resilience.Journal
module Supervisor = Poc_resilience.Supervisor
module Fault = Poc_resilience.Fault
module Intake = Poc_daemon.Intake
module Admission = Poc_daemon.Admission
module Table = Poc_util.Table

type source = Src_flight | Src_journal | Src_intake

let source_to_string = function
  | Src_flight -> "flight"
  | Src_journal -> "journal"
  | Src_intake -> "intake"

type entry = {
  e_epoch : int;
  e_source : source;
  e_phase : string;
  e_label : string;
  e_detail : string;
  e_ts_us : float;
}

type analysis = {
  a_store : string;
  a_flight_path : string option;
  a_flight : (Flight.image_data, string) result option;
  a_journal : (Journal.replayed, string) result;
  a_scrub : (Journal.scrub_report, string) result;
  a_intake_path : string option;
  a_intake : (Intake.record list * bool, string) result option;
  a_durable_epoch : int;
  a_in_flight : (int * string) option;
  a_entries : entry list;
}

(* --- per-source entry builders -------------------------------------------- *)

let flight_entries (img : Flight.image_data) =
  List.map
    (fun (r : Flight.record) ->
      let label, detail =
        match r.Flight.kind with
        | Flight.Span_open { name } -> ("span_open", name)
        | Flight.Span_close { name; dur_us } ->
          ("span_close", Printf.sprintf "%s dur_us=%.0f" name dur_us)
        | Flight.Event { name; detail } -> ("event", name ^ ": " ^ detail)
        | Flight.Incident { incident; detail } ->
          ("incident", incident ^ ": " ^ detail)
        | Flight.Metric { name; delta } ->
          ("metric", Printf.sprintf "%s=%.6g" name delta)
      in
      {
        e_epoch = r.Flight.epoch;
        e_source = Src_flight;
        e_phase = r.Flight.phase;
        e_label = label;
        e_detail = detail;
        e_ts_us = r.Flight.ts_us;
      })
    img.Flight.img_records

let journal_entries (rep : Journal.replayed) =
  let of_report (er : Journal.epoch_report) =
    {
      e_epoch = er.Journal.epoch;
      e_source = Src_journal;
      e_phase = "";
      e_label = "epoch";
      e_detail =
        Printf.sprintf "status=%s spend=%.2f delivered=%.3f"
          (Supervisor.status_to_string er.Journal.status)
          er.Journal.spend er.Journal.delivered_fraction;
      e_ts_us = nan;
    }
  in
  let of_violation (v : Journal.violation) =
    {
      e_epoch = v.Journal.epoch;
      e_source = Src_journal;
      e_phase = "";
      e_label = "violation";
      e_detail = v.Journal.invariant ^ ": " ^ v.Journal.detail;
      e_ts_us = nan;
    }
  in
  let prefix = List.map of_report rep.Journal.prefix_reports in
  let live =
    List.concat_map
      (fun (r : Journal.epoch_record) ->
        let ev =
          List.map
            (fun e ->
              {
                e_epoch = r.Journal.report.Journal.epoch;
                e_source = Src_journal;
                e_phase = "";
                e_label = "fault";
                e_detail = Fault.event_to_string e;
                e_ts_us = nan;
              })
            r.Journal.events
        in
        ev
        @ List.map of_violation r.Journal.violations
        @ [ of_report r.Journal.report ])
      rep.Journal.records
  in
  let complete =
    match rep.Journal.complete with
    | None -> []
    | Some _ ->
      [
        {
          e_epoch =
            (match List.rev rep.Journal.records with
            | r :: _ -> r.Journal.report.Journal.epoch
            | [] -> -1);
          e_source = Src_journal;
          e_phase = "";
          e_label = "complete";
          e_detail = "run finished; completion record present";
          e_ts_us = nan;
        };
      ]
  in
  prefix
  @ List.map of_violation rep.Journal.prefix_violations
  @ live @ complete

let intake_entries records =
  List.map
    (fun (r : Intake.record) ->
      let e = r.Intake.entry in
      let payload =
        match e.Admission.payload with
        | Supervisor.Scale_bid { bp; factor } ->
          Printf.sprintf "scale_bid bp=%d factor=%g" bp factor
        | Supervisor.Scale_demand { factor } ->
          Printf.sprintf "scale_demand factor=%g" factor
      in
      let shed =
        match r.Intake.displaces with
        | Some s -> Printf.sprintf " shed=%d" s
        | None -> ""
      in
      {
        e_epoch = e.Admission.apply_epoch;
        e_source = Src_intake;
        e_phase = "admission";
        e_label = "admit";
        e_detail =
          Printf.sprintf "seq=%d priority=%d %s%s" e.Admission.seq
            e.Admission.priority payload shed;
        e_ts_us = nan;
      })
    records

(* --- the merge ------------------------------------------------------------- *)

let source_rank = function Src_intake -> 0 | Src_flight -> 1 | Src_journal -> 2

(* Epoch first; within an epoch intake (arrived before it ran), then
   flight (narrates it running), then the journal's durable record as
   the last word.  The sort is stable, so each source keeps its own
   chronological order. *)
let order entries =
  List.stable_sort
    (fun a b ->
      match compare a.e_epoch b.e_epoch with
      | 0 -> compare (source_rank a.e_source) (source_rank b.e_source)
      | c -> c)
    entries

let durable_epoch (journal : (Journal.replayed, string) result) =
  match journal with
  | Error _ -> 0
  | Ok rep ->
    List.fold_left
      (fun acc (er : Journal.epoch_report) -> max acc er.Journal.epoch)
      0
      (rep.Journal.prefix_reports
      @ List.map (fun (r : Journal.epoch_record) -> r.Journal.report)
          rep.Journal.records)

(* The in-flight verdict, from the newest attempt's records only (a
   resumed run's box still holds its earlier attempts', each ending
   where a resume marker follows): a crash incident names the exact
   point; else the newest record past the durable horizon places the
   death inside that epoch and phase. *)
let in_flight ~durable flight =
  match flight with
  | None | Some (Error _) -> None
  | Some (Ok (img : Flight.image_data)) -> (
    let rec this_attempt = function
      | r :: older when not (Black_box.is_resume r) -> r :: this_attempt older
      | _ -> []
    in
    let newest_first = this_attempt (List.rev img.Flight.img_records) in
    let crash =
      List.find_opt
        (fun (r : Flight.record) ->
          match r.Flight.kind with
          | Flight.Incident { incident = "crash"; _ } -> true
          | _ -> false)
        newest_first
    in
    match crash with
    | Some r -> Some (r.Flight.epoch, r.Flight.phase)
    | None -> (
      match
        List.find_opt
          (fun (r : Flight.record) -> r.Flight.epoch > durable)
          newest_first
      with
      | Some r -> Some (r.Flight.epoch, r.Flight.phase)
      | None -> None))

let analyze ?disk ?flight ?intake store =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  let flight_path =
    match flight with Some p -> p | None -> Black_box.file_in store
  in
  let flight_present = Disk.exists disk flight_path in
  let a_flight =
    if not flight_present then None
    else
      Some
        (Black_box.load ~disk flight_path)
  in
  let a_journal = Journal.replay ~disk store in
  let a_scrub = Journal.scrub ~disk ~dry_run:true store in
  let intake_path =
    match intake with
    | Some p -> p
    | None -> Filename.concat (Filename.dirname store) "intake.log"
  in
  let intake_present = Disk.exists disk intake_path in
  let a_intake =
    if not intake_present then None else Some (Intake.read ~disk intake_path)
  in
  if (not flight_present) && Result.is_error a_journal && not intake_present
  then
    Error
      (Printf.sprintf
         "%s: no flight box, no readable journal, no intake log — nothing to \
          analyze%s"
         store
         (match a_journal with Error e -> " (journal: " ^ e ^ ")" | Ok _ -> ""))
  else begin
    let durable = durable_epoch a_journal in
    let entries =
      (match a_flight with Some (Ok img) -> flight_entries img | _ -> [])
      @ (match a_journal with Ok rep -> journal_entries rep | Error _ -> [])
      @ (match a_intake with
        | Some (Ok (records, _)) -> intake_entries records
        | _ -> [])
    in
    Ok
      {
        a_store = store;
        a_flight_path = (if flight_present then Some flight_path else None);
        a_flight;
        a_journal;
        a_scrub;
        a_intake_path = (if intake_present then Some intake_path else None);
        a_intake;
        a_durable_epoch = durable;
        a_in_flight = in_flight ~durable a_flight;
        a_entries = order entries;
      }
  end

(* --- rendering ------------------------------------------------------------- *)

let render a =
  let b = Buffer.create 4096 in
  Printf.bprintf b "forensics: %s\n" a.a_store;
  (match (a.a_flight_path, a.a_flight) with
  | Some p, Some (Ok img) ->
    Printf.bprintf b
      "flight:    %s — %d records (%d frames%s, capacity %d)\n" p
      (List.length img.Flight.img_records)
      img.Flight.img_frames
      (if img.Flight.img_torn then ", torn tail" else "")
      img.Flight.img_capacity
  | Some p, Some (Error e) -> Printf.bprintf b "flight:    %s — ERROR %s\n" p e
  | _ -> Buffer.add_string b "flight:    none\n");
  (match a.a_journal with
  | Ok rep ->
    Printf.bprintf b
      "journal:   segmented — durable through epoch %d%s%s\n"
      a.a_durable_epoch
      (if rep.Journal.torn_tail then ", torn tail" else "")
      (if rep.Journal.complete <> None then ", complete" else "")
  | Error e -> Printf.bprintf b "journal:   ERROR %s\n" e);
  (match a.a_scrub with
  | Ok rep ->
    let worst =
      List.fold_left
        (fun acc (s : Journal.segment_scrub) ->
          match s.Journal.verdict with
          | Journal.Scrub_clean -> acc
          | v -> Journal.verdict_to_string v :: acc)
        [] rep.Journal.segments
    in
    Printf.bprintf b "scrub:     %s (dry run; recovered=%b)\n"
      (if worst = [] then "clean" else String.concat ", " (List.rev worst))
      rep.Journal.recovered
  | Error e -> Printf.bprintf b "scrub:     ERROR %s\n" e);
  (match (a.a_intake_path, a.a_intake) with
  | Some p, Some (Ok (records, torn)) ->
    Printf.bprintf b "intake:    %s — %d admissions%s\n" p
      (List.length records)
      (if torn then ", torn tail" else "")
  | Some p, Some (Error e) -> Printf.bprintf b "intake:    %s — ERROR %s\n" p e
  | _ -> Buffer.add_string b "intake:    none\n");
  (match a.a_in_flight with
  | Some (e, phase) ->
    Printf.bprintf b "in-flight: epoch %d phase %s\n" e
      (if phase = "" then "(none)" else phase)
  | None ->
    Printf.bprintf b
      "in-flight: none — journal durable through everything recorded\n");
  let rows =
    List.map
      (fun e ->
        [
          (if e.e_epoch < 0 then "-" else string_of_int e.e_epoch);
          source_to_string e.e_source;
          (if e.e_phase = "" then "-" else e.e_phase);
          e.e_label;
          e.e_detail;
        ])
      a.a_entries
  in
  if rows <> [] then
    Buffer.add_string b
      (Table.render
         ~align:[ Table.Right; Table.Left; Table.Left; Table.Left; Table.Left ]
         ~header:[ "epoch"; "source"; "phase"; "what"; "detail" ]
         rows);
  Buffer.contents b

let jstr s = "\"" ^ Metrics.json_escape s ^ "\""

let to_json a =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"store\":%s,\"sources\":{" (jstr a.a_store);
  (match (a.a_flight_path, a.a_flight) with
  | Some p, Some (Ok img) ->
    Printf.bprintf b
      "\"flight\":{\"path\":%s,\"records\":%d,\"frames\":%d,\"torn\":%b,\"capacity\":%d}"
      (jstr p)
      (List.length img.Flight.img_records)
      img.Flight.img_frames img.Flight.img_torn img.Flight.img_capacity
  | Some p, Some (Error e) ->
    Printf.bprintf b "\"flight\":{\"path\":%s,\"error\":%s}" (jstr p) (jstr e)
  | _ -> Buffer.add_string b "\"flight\":null");
  (match a.a_journal with
  | Ok rep ->
    Printf.bprintf b
      ",\"journal\":{\"durable_epoch\":%d,\"torn_tail\":%b,\"complete\":%b}"
      a.a_durable_epoch rep.Journal.torn_tail
      (rep.Journal.complete <> None)
  | Error e -> Printf.bprintf b ",\"journal\":{\"error\":%s}" (jstr e));
  (match (a.a_intake_path, a.a_intake) with
  | Some p, Some (Ok (records, torn)) ->
    Printf.bprintf b
      ",\"intake\":{\"path\":%s,\"admissions\":%d,\"torn\":%b}" (jstr p)
      (List.length records) torn
  | Some p, Some (Error e) ->
    Printf.bprintf b ",\"intake\":{\"path\":%s,\"error\":%s}" (jstr p) (jstr e)
  | _ -> Buffer.add_string b ",\"intake\":null");
  Buffer.add_string b "},";
  Printf.bprintf b "\"durable_epoch\":%d," a.a_durable_epoch;
  (match a.a_in_flight with
  | Some (e, phase) ->
    Printf.bprintf b "\"in_flight\":{\"epoch\":%d,\"phase\":%s}," e
      (jstr phase)
  | None -> Buffer.add_string b "\"in_flight\":null,");
  (match a.a_scrub with
  | Ok rep ->
    Printf.bprintf b "\"scrub\":{\"recovered\":%b,\"segments\":[%s]},"
      rep.Journal.recovered
      (String.concat ","
         (List.map
            (fun (s : Journal.segment_scrub) ->
              Printf.sprintf
                "{\"segment\":%d,\"verdict\":%s,\"action\":%s,\"records_ok\":%d}"
                s.Journal.seg_id
                (jstr (Journal.verdict_to_string s.Journal.verdict))
                (jstr (Journal.action_to_string s.Journal.action))
                s.Journal.records_ok)
            rep.Journal.segments))
  | Error e -> Printf.bprintf b "\"scrub\":{\"error\":%s}," (jstr e));
  Buffer.add_string b "\"timeline\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"epoch\":%d,\"source\":%s,\"phase\":%s,\"what\":%s,\"detail\":%s}"
        e.e_epoch
        (jstr (source_to_string e.e_source))
        (jstr e.e_phase) (jstr e.e_label) (jstr e.e_detail))
    a.a_entries;
  Buffer.add_string b "]}\n";
  Buffer.contents b
