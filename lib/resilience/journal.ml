module Codec = Poc_util.Codec
module Epochs = Poc_market.Epochs
module Acceptability = Poc_auction.Acceptability

type status =
  | Healthy
  | Degraded of Ladder.step
  | Carried
  | Blackout

type epoch_report = {
  epoch : int;
  status : status;
  spend : float;
  price_per_gbps : float;
  delivered_fraction : float;
  selected_links : int;
  recalled_links : int;
  active_faults : int;
  ladder_attempts : int;
  ledger_conservation : float option;
  posted_price : float option;
}

type violation = { epoch : int; invariant : string; detail : string }

type epoch_record = {
  report : epoch_report;
  events : Fault.event list;
  selected : int list;
  violations : violation list;
}

type snapshot = {
  at_epoch : int;
  prng_state : int64;
  cost_level : float array;
  down : int list;
  gone : int list;
  surge : float;
  demand_scale : float;
  last_good : (int list * float) option;
}

type header = {
  version : int;
  market_seed : int;
  market_epochs : int;
  n_bps : int;
  snapshot_every : int;
  digest : int64;
}

type carry = {
  at : snapshot;
  carry_reports : epoch_report list;
  carry_violations : violation list;
}

let version = 1
let magic = 0x504F434A (* "POCJ" *)
let manifest_name = "MANIFEST"
let quarantine_name = "quarantine"
let manifest_path dir = Filename.concat dir manifest_name
let seg_name id = Printf.sprintf "%05d.seg" id
let seg_path dir id = Filename.concat dir (seg_name id)

let seg_id_of_name name =
  if Filename.check_suffix name ".seg" then begin
    let stem = Filename.chop_suffix name ".seg" in
    if
      String.length stem >= 5
      && String.for_all (fun c -> c >= '0' && c <= '9') stem
    then int_of_string_opt stem
    else None
  end
  else None

(* --- formats -------------------------------------------------------------- *)

let rule =
  Codec.(
    union ~unknown:"bad acceptability tag"
      [
        const_case 0 Acceptability.Handle_load;
        const_case 1 Acceptability.Single_link_failure;
        const_case 2 Acceptability.Per_pair_failure;
      ])

let phase =
  Codec.(
    union ~unknown:"bad phase tag"
      [
        const_case 0 Fault.Pre_auction;
        const_case 1 Fault.Pre_settle;
        const_case 2 Fault.Post_settle;
      ])

let disk_fault =
  Codec.(
    union ~unknown:"bad disk-fault tag"
      [
        case 0 int (fun drop -> Disk.Short_write { drop })
          (function Disk.Short_write { drop } -> Some drop | _ -> None);
        const_case 1 Disk.Torn_rename;
        case 2 int (fun drop -> Disk.Lying_fsync { drop })
          (function Disk.Lying_fsync { drop } -> Some drop | _ -> None);
        case 3 int (fun seed -> Disk.Corrupt_byte { seed })
          (function Disk.Corrupt_byte { seed } -> Some seed | _ -> None);
      ])

let event =
  Codec.(
    union ~unknown:"bad event tag"
      [
        case 0 int (fun id -> Fault.Link_down id)
          (function Fault.Link_down id -> Some id | _ -> None);
        case 1 int (fun id -> Fault.Link_up id)
          (function Fault.Link_up id -> Some id | _ -> None);
        case 2 int (fun bp -> Fault.Bp_exit bp)
          (function Fault.Bp_exit bp -> Some bp | _ -> None);
        case 3 (list int) (fun ids -> Fault.Withdraw ids)
          (function Fault.Withdraw ids -> Some ids | _ -> None);
        case 4 f64 (fun f -> Fault.Surge f)
          (function Fault.Surge f -> Some f | _ -> None);
        case 5 f64 (fun f -> Fault.Surge_over f)
          (function Fault.Surge_over f -> Some f | _ -> None);
        case 6 phase (fun p -> Fault.Crash_point p)
          (function Fault.Crash_point p -> Some p | _ -> None);
        case 7 (t2 phase disk_fault)
          (fun (p, fault) -> Fault.Disk_point (p, fault))
          (function Fault.Disk_point (p, fault) -> Some (p, fault) | _ -> None);
      ])

let status =
  Codec.(
    union ~unknown:"bad status tag"
      [
        const_case 0 Healthy;
        case 1
          (union ~unknown:"bad ladder-step tag"
             [
               case 0 f64 (fun f -> Ladder.Relax_demand f)
                 (function Ladder.Relax_demand f -> Some f | _ -> None);
               case 1 rule (fun r -> Ladder.Step_down r)
                 (function Ladder.Step_down r -> Some r | _ -> None);
               const_case 2 Ladder.Connectivity_only;
               const_case 3 Ladder.External_transit;
             ])
          (fun step -> Degraded step)
          (function Degraded step -> Some step | _ -> None);
        const_case 2 Carried;
        const_case 3 Blackout;
      ])

let report =
  Codec.(
    record
      (fun epoch status spend price_per_gbps delivered_fraction selected_links
           recalled_links active_faults ladder_attempts ledger_conservation
           posted_price ->
        { epoch; status; spend; price_per_gbps; delivered_fraction;
          selected_links; recalled_links; active_faults; ladder_attempts;
          ledger_conservation; posted_price })
    |+ field int (fun (r : epoch_report) -> r.epoch)
    |+ field status (fun r -> r.status)
    |+ field f64 (fun r -> r.spend)
    |+ field f64 (fun r -> r.price_per_gbps)
    |+ field f64 (fun r -> r.delivered_fraction)
    |+ field int (fun r -> r.selected_links)
    |+ field int (fun r -> r.recalled_links)
    |+ field int (fun r -> r.active_faults)
    |+ field int (fun r -> r.ladder_attempts)
    |+ field (option f64) (fun r -> r.ledger_conservation)
    |+ field (option f64) (fun r -> r.posted_price)
    |> seal)

let violation =
  Codec.(
    record (fun epoch invariant detail -> { epoch; invariant; detail })
    |+ field int (fun (v : violation) -> v.epoch)
    |+ field string (fun v -> v.invariant)
    |+ field string (fun v -> v.detail)
    |> seal)

let snapshot =
  Codec.(
    record
      (fun at_epoch prng_state cost_level down gone surge demand_scale
           last_good ->
        { at_epoch; prng_state; cost_level; down; gone; surge; demand_scale;
          last_good })
    |+ field int (fun s -> s.at_epoch)
    |+ field i64 (fun s -> s.prng_state)
    |+ field f64_array (fun s -> s.cost_level)
    |+ field (list int) (fun s -> s.down)
    |+ field (list int) (fun s -> s.gone)
    |+ field f64 (fun s -> s.surge)
    |+ field f64 (fun s -> s.demand_scale)
    |+ field (option (t2 (list int) f64)) (fun s -> s.last_good)
    |> seal)

let carry =
  Codec.(
    record (fun at carry_reports carry_violations ->
        { at; carry_reports; carry_violations })
    |+ field snapshot (fun c -> c.at)
    |+ field (list report) (fun c -> c.carry_reports)
    |+ field (list violation) (fun c -> c.carry_violations)
    |> seal)

(* The records after a segment's header.  Bytes after a record are
   ignored, here and in the header and MANIFEST. *)
type entry = Epoch of epoch_record | Snapshot of snapshot | Complete of string

let entry =
  Codec.(
    union ~unknown:"unknown record kind"
      [
        case 1
          (record (fun report events selected violations ->
               { report; events; selected; violations })
          |+ field report (fun e -> e.report)
          |+ field (list event) (fun e -> e.events)
          |+ field (list int) (fun e -> e.selected)
          |+ field (list violation) (fun e -> e.violations)
          |> seal)
          (fun e -> Epoch e)
          (function Epoch e -> Some e | _ -> None);
        case 2 snapshot (fun s -> Snapshot s)
          (function Snapshot s -> Some s | _ -> None);
        case 3 string (fun incidents -> Complete incidents)
          (function Complete incidents -> Some incidents | _ -> None);
      ])

type seg_header = {
  header : header;
  seg_id : int;
  budget : int;
  carry : carry option;
}

(* Kind 4, the first frame of every segment.  Its kind, magic and
   version are refused with a message; any other damage is [Corrupt]. *)
let seg_header =
  Codec.(
    record
      (fun seg_id budget market_seed market_epochs n_bps snapshot_every digest
           carry ->
        let header =
          { version; market_seed; market_epochs; n_bps; snapshot_every; digest }
        in
        { header; seg_id; budget; carry })
    |- const u8 4 ~refuse:(fun _ -> "first record is not a segment header")
    |- const u32 magic ~refuse:(fun _ -> "bad magic: not a POC journal segment")
    |- const int version
         ~refuse:(fun v ->
           Printf.sprintf
             "journal format version %d, but this build reads version %d" v
             version)
    |+ field int (fun s -> s.seg_id)
    |+ field int (fun s -> s.budget)
    |+ field int (fun s -> s.header.market_seed)
    |+ field int (fun s -> s.header.market_epochs)
    |+ field int (fun s -> s.header.n_bps)
    |+ field int (fun s -> s.header.snapshot_every)
    |+ field i64 (fun s -> s.header.digest)
    |+ field (option carry) (fun s -> s.carry)
    |> seal)

(* Kind 5: the live segment ids. *)
let manifest =
  Codec.(
    record Fun.id
    |- const u8 5
    |- const u32 magic
    |- const int version
    |+ field (list int) Fun.id
    |> seal)

(* --- digest ------------------------------------------------------------- *)

(* The market config, the ladder and the schedule's events: never read
   back, only checksummed. *)
let digest_input =
  Codec.(
    record
      (fun epochs cost_trend cost_volatility demand_growth seed strategies
           events ->
        ( { Epochs.epochs; cost_trend; cost_volatility; demand_growth; seed;
            strategies },
          events ))
    |+ field int (fun (m, _) -> m.Epochs.epochs)
    |+ field f64 (fun (m, _) -> m.Epochs.cost_trend)
    |+ field f64 (fun (m, _) -> m.Epochs.cost_volatility)
    |+ field f64 (fun (m, _) -> m.Epochs.demand_growth)
    |+ field int (fun (m, _) -> m.Epochs.seed)
    |+ field
         (list
            (t2 int
               (union ~unknown:"bad strategy tag"
                  [
                    const_case 0 Epochs.Truthful;
                    case 1 f64 (fun m -> Epochs.Markup m)
                      (function Epochs.Markup m -> Some m | _ -> None);
                    case 2 f64 (fun f -> Epochs.Recallable f)
                      (function Epochs.Recallable f -> Some f | _ -> None);
                  ])))
         (fun (m, _) -> m.Epochs.strategies)
    (* The ladder, as the bytes its former settings wrote (factors,
       step-down on, an 8-rung budget), so older stores still resume. *)
    |- const (list f64) Ladder.relax_factors
    |- const bool true
    |- const int 8
    |+ field (list (t2 int event)) snd
    |> seal)

let digest ~(market : Epochs.config) schedule =
  (* Crash and disk-fault points are excluded: they kill the process,
     not the market, and a resumed run ignores them — so a journal
     written under a crash-injecting schedule can be resumed under the
     same schedule with or without its [Crash]/[Storage] specs. *)
  let events =
    List.filter
      (fun (_, ev) ->
        match ev with
        | Fault.Crash_point _ | Fault.Disk_point _ -> false
        | _ -> true)
      (Fault.events schedule)
  in
  Int64.of_int (Codec.crc32 (Codec.encode digest_input (market, events)))

(* --- metrics ------------------------------------------------------------ *)

module Metrics = Poc_obs.Metrics

let m_bytes =
  Metrics.counter ~help:"Bytes appended to run journals" Metrics.default
    "poc_journal_bytes_total"

let m_flushes =
  Metrics.counter ~help:"Journal record flushes" Metrics.default
    "poc_journal_flushes_total"

let m_rotations =
  Metrics.counter ~help:"Journal segment rotations" Metrics.default
    "poc_journal_rotations_total"

let m_gc_segments =
  Metrics.counter ~help:"Journal segments garbage-collected at rotation"
    Metrics.default "poc_journal_gc_segments_total"

let m_scrub_segments =
  Metrics.counter ~help:"Journal segments examined by scrub" Metrics.default
    "poc_scrub_segments_total"

let m_scrub_records =
  Metrics.counter ~help:"Checksum-valid records seen by scrub" Metrics.default
    "poc_scrub_records_ok_total"

let m_scrub_truncated =
  Metrics.counter ~help:"Segments truncated by scrub" Metrics.default
    "poc_scrub_truncated_total"

let m_scrub_quarantined =
  Metrics.counter ~help:"Segments quarantined by scrub" Metrics.default
    "poc_scrub_quarantined_total"

let m_scrub_bytes_dropped =
  Metrics.counter ~help:"Damaged bytes removed by scrub" Metrics.default
    "poc_scrub_bytes_dropped_total"

(* --- writer ------------------------------------------------------------- *)

type t = {
  disk : Disk.t;
  header : header;
  dir : string;
  budget : int;
  mutable seg_id : int;
  mutable log : Log.t;
  mutable live : int list;
}

let log_append log s =
  Metrics.Counter.add m_bytes (float_of_int (String.length s));
  Metrics.Counter.inc m_flushes;
  Log.append log s

let raw_append t s = log_append t.log s

let write_manifest disk dir ids =
  Disk.write_file_atomic disk (manifest_path dir)
    (Codec.frame (Codec.encode manifest ids))

let header_frame header ~seg_id ~budget ~carry =
  Codec.frame (Codec.encode seg_header { header; seg_id; budget; carry })

let create ?disk ?segment_bytes path header =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  (* Without a budget the store never rotates: one segment holds the
     whole run. *)
  let budget = Option.value segment_bytes ~default:max_int in
  if budget < 1 then invalid_arg "Journal.create: segment_bytes must be >= 1";
  Disk.mkdir_p disk path;
  (* A fresh run claims the whole directory: stale segments, manifest
     and quarantined files from a previous run are cleared. *)
  Array.iter
    (fun name ->
      if
        seg_id_of_name name <> None
        || name = manifest_name
        || name = manifest_name ^ ".tmp"
      then Disk.remove disk (Filename.concat path name))
    (Disk.readdir disk path);
  let qdir = Filename.concat path quarantine_name in
  if Disk.is_directory disk qdir then
    Array.iter
      (fun name ->
        if seg_id_of_name name <> None then
          Disk.remove disk (Filename.concat qdir name))
      (Disk.readdir disk qdir);
  let log = Log.create disk (seg_path path 1) in
  let t = { disk; header; dir = path; budget; seg_id = 1; log; live = [ 1 ] } in
  raw_append t (header_frame header ~seg_id:1 ~budget ~carry:None);
  write_manifest disk path [ 1 ];
  t

let wants_rotation t = Log.size t.log > t.budget

let rotate t (c : carry) =
  let next_id = t.seg_id + 1 in
  let log = Log.create t.disk (seg_path t.dir next_id) in
  log_append log
    (header_frame t.header ~seg_id:next_id ~budget:t.budget ~carry:(Some c));
  Log.close t.log;
  (* New segment durable before the manifest flips; old segments are
     deleted only after the flip, so every crash point leaves either
     the old manifest with its files intact (plus a harmless orphan)
     or the new manifest with its files intact. *)
  let dropped = List.filter (fun id -> id <> t.seg_id) t.live in
  let live = [ t.seg_id; next_id ] in
  write_manifest t.disk t.dir live;
  List.iter (fun id -> Disk.remove t.disk (seg_path t.dir id)) dropped;
  Metrics.Counter.inc m_rotations;
  Metrics.Counter.add m_gc_segments (float_of_int (List.length dropped));
  t.seg_id <- next_id;
  t.log <- log;
  t.live <- live

let append_entry t e = raw_append t (Codec.frame (Codec.encode entry e))
let append_epoch t rec_ = append_entry t (Epoch rec_)
let append_snapshot t s = append_entry t (Snapshot s)
let append_complete t ~incidents = append_entry t (Complete incidents)

let append_torn t ~epoch =
  (* Exactly what a crash between auction and settlement leaves on
     disk: a frame header promising more payload than ever arrived. *)
  let w = Codec.writer () in
  Codec.put_u8 w 1;
  Codec.put_int w epoch;
  let partial = Codec.contents w in
  Codec.put_string w "unsettled epoch lost to the crash";
  let framed = Codec.frame (Codec.contents w) in
  raw_append t (String.sub framed 0 (8 + String.length partial))

let close t = Log.close t.log

(* --- replay ------------------------------------------------------------- *)

type replayed = {
  header : header;
  records : epoch_record list;
  snapshot : snapshot option;
  complete : string option;
  torn_tail : bool;
  valid_bytes : int;
  resume_offset : int;
  prefix_reports : epoch_report list;
  prefix_violations : violation list;
  segment_bytes : int;
  active_segment : int;
  live_segments : int list;
}

let parse_seg_header payload =
  match Codec.decode seg_header payload with
  | h -> Ok h
  | exception Codec.Refused msg -> Error msg

(* The record frames after a header ending at [start], up to the first
   torn or unparseable one; resume truncates at the end of the last
   snapshot among them. *)
let scan_records data ~start =
  let s = Codec.scan ~from:start ~decode:(Codec.decode entry) data in
  let records, snapshot, complete, resume =
    List.fold_left
      (fun (records, snapshot, complete, resume) (r, next) ->
        match r with
        | Epoch rec_ -> (rec_ :: records, snapshot, complete, resume)
        | Snapshot snap -> (records, Some snap, complete, next)
        | Complete incidents -> (records, snapshot, Some incidents, resume))
      ([], None, None, start) s.Codec.frames
  in
  (List.rev records, snapshot, complete, s.Codec.verdict <> Codec.Clean,
   s.Codec.valid, resume)

let read_manifest disk dir =
  match Log.read_single disk (manifest_path dir) with
  | None -> None
  | Some payload -> (
    try Some (Codec.decode manifest payload) with Codec.Corrupt _ -> None)

let seg_ids_on_disk disk dir =
  Disk.readdir disk dir
  |> Array.to_list
  |> List.filter_map seg_id_of_name
  |> List.sort_uniq compare

let live_segment_ids disk dir =
  match read_manifest disk dir with
  | Some (_ :: _ as ids) -> List.sort_uniq compare ids
  | Some [] | None ->
    (* The manifest itself can be the casualty (a torn rename during
       the very first rotation); fall back to what is on disk. *)
    seg_ids_on_disk disk dir

(* A plain file is refused, not guessed at: it is most likely a
   single-file journal from an older build, a format no longer read. *)
let not_a_store path =
  Error
    (Printf.sprintf "cannot read journal: %s is not a journal store directory"
       path)

let replay ?disk dir =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  if not (Disk.is_directory disk dir) then not_a_store dir
  else
    match live_segment_ids disk dir with
    | [] -> Error "empty directory: not a POC journal store"
    | live -> (
      let active = List.fold_left max 0 live in
      let path = seg_path dir active in
      let unusable what =
        Error
          (Printf.sprintf
             "segment %s has %s; run `poc-cli scrub` to quarantine it and fall \
              back to the previous checkpoint"
             (seg_name active) what)
      in
      match Disk.read_file disk path with
      | exception Sys_error _ -> unusable "gone missing"
      | data -> (
        match Codec.next_frame data ~pos:0 with
        | End | Torn -> unusable "an unreadable header"
        | Frame { payload; next } -> (
          match parse_seg_header payload with
          | exception Codec.Corrupt _ -> unusable "a corrupt header"
          | Error msg -> Error msg
          | Ok { header; seg_id; budget; carry } ->
            if seg_id <> active then
              Error
                (Printf.sprintf "segment %s claims to be segment %d"
                   (seg_name active) seg_id)
            else
              let records, snap_rec, complete, torn, valid, resume =
                scan_records data ~start:next
              in
              let snapshot =
                match snap_rec with
                | Some s -> Some s
                | None -> Option.map (fun c -> c.at) carry
              in
              Ok
                {
                  header;
                  records;
                  snapshot;
                  complete;
                  torn_tail = torn;
                  valid_bytes = valid;
                  resume_offset = resume;
                  prefix_reports =
                    (match carry with Some c -> c.carry_reports | None -> []);
                  prefix_violations =
                    (match carry with Some c -> c.carry_violations | None -> []);
                  segment_bytes = budget;
                  active_segment = active;
                  live_segments = live;
                })))

let reopen ?disk dir (r : replayed) =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  (* A crash mid-rotation leaves a fully-written segment N+1 whose
     manifest flip never landed: an orphan.  Resume grows the store
     from the manifest's view, so orphans (and any stale manifest
     temp file) are deleted — the rotation will be replayed and
     rewrite the same segment with the same bytes. *)
  Disk.remove disk (manifest_path dir ^ ".tmp");
  Array.iter
    (fun name ->
      match seg_id_of_name name with
      | Some id when not (List.mem id r.live_segments) ->
        Disk.remove disk (Filename.concat dir name)
      | Some _ | None -> ())
    (Disk.readdir disk dir);
  (* The manifest goes first: when its write fails, no segment handle
     is left open behind the error. *)
  write_manifest disk dir r.live_segments;
  (* Only a store that ran past its last checkpoint is cut back; a
     clean one is opened where it ends without being read again. *)
  let log =
    Log.reopen disk (seg_path dir r.active_segment) ~at:r.resume_offset
      ~truncate:(r.torn_tail || r.valid_bytes > r.resume_offset)
  in
  {
    disk;
    header = r.header;
    dir;
    budget = r.segment_bytes;
    seg_id = r.active_segment;
    log;
    live = r.live_segments;
  }

(* --- scrub -------------------------------------------------------------- *)

type scrub_verdict =
  | Scrub_clean
  | Scrub_torn_tail
  | Scrub_corrupt_interior
  | Scrub_unreadable

type scrub_action = Scrub_none | Scrub_truncated | Scrub_quarantined

type segment_scrub = {
  seg_id : int;
  seg_path : string;
  records_ok : int;
  verdict : scrub_verdict;
  action : scrub_action;
  bytes_kept : int;
  bytes_dropped : int;
}

type scrub_report = {
  store : string;
  applied : bool;
  recovered : bool;
  segments : segment_scrub list;
}

let verdict_to_string = function
  | Scrub_clean -> "clean"
  | Scrub_torn_tail -> "torn_tail"
  | Scrub_corrupt_interior -> "corrupt_interior"
  | Scrub_unreadable -> "unreadable"

let action_to_string = function
  | Scrub_none -> "none"
  | Scrub_truncated -> "truncated"
  | Scrub_quarantined -> "quarantined"

(* Scrub one segment: walk every frame after the header; on the first
   bad one, the distinction that matters is whether anything decodable
   follows.  Nothing after = the torn tail a crash leaves (expected,
   truncate); valid frames after = a damaged interior, i.e. silent
   corruption of committed history (truncate at the damage and let
   resume fall back to the checkpoint before it).  A destroyed header
   makes the segment unreadable: it is quarantined. *)
let scrub_entry ~seg_id ~seg_path data =
  let header_ok payload =
    match parse_seg_header payload with
    | Ok _ -> true
    | Error _ | (exception Codec.Corrupt _) -> false
  in
  let verdict, records_ok, keep =
    match Codec.next_frame data ~pos:0 with
    | Frame { payload; next } when header_ok payload ->
      let s = Codec.scan ~from:next ~decode:(Codec.skip entry) data in
      ( (match s.Codec.verdict with
        | Codec.Clean -> Scrub_clean
        | Codec.Torn_tail -> Scrub_torn_tail
        | Codec.Corrupt_at _ -> Scrub_corrupt_interior),
        List.length s.Codec.frames,
        s.Codec.valid )
    | Frame _ | End | Torn -> (Scrub_unreadable, 0, 0)
  in
  let total = String.length data in
  let action, bytes_kept =
    match verdict with
    | Scrub_clean -> (Scrub_none, total)
    | Scrub_torn_tail | Scrub_corrupt_interior -> (Scrub_truncated, keep)
    | Scrub_unreadable -> (Scrub_quarantined, 0)
  in
  {
    seg_id;
    seg_path;
    records_ok;
    verdict;
    action;
    bytes_kept;
    bytes_dropped = total - bytes_kept;
  }

let count_scrub ~applied entries =
  List.iter
    (fun e ->
      Metrics.Counter.inc m_scrub_segments;
      Metrics.Counter.add m_scrub_records (float_of_int e.records_ok);
      if applied then begin
        (match e.action with
        | Scrub_truncated -> Metrics.Counter.inc m_scrub_truncated
        | Scrub_quarantined -> Metrics.Counter.inc m_scrub_quarantined
        | Scrub_none -> ());
        Metrics.Counter.add m_scrub_bytes_dropped
          (float_of_int e.bytes_dropped)
      end)
    entries

let scrub ?disk ?(dry_run = false) dir =
  let disk = match disk with Some d -> d | None -> Disk.real () in
  if not (Disk.is_directory disk dir) then not_a_store dir
  else
    match live_segment_ids disk dir with
    | [] ->
      (* A previous scrub can quarantine every segment, leaving a store
         with a quarantine/ subdirectory and nothing live.  Scrub must
         stay idempotent across that dead end: recognise the store as an
         already-scrubbed journal with nothing durable left rather than
         refusing it. *)
      if Disk.exists disk (Filename.concat dir quarantine_name) then
        Ok { store = dir; applied = not dry_run; recovered = false; segments = [] }
      else Error "empty directory: not a POC journal store"
    | live ->
      (* A segment that cannot be read scrubs like an empty one:
         unreadable, quarantined. *)
      let entries =
        List.map
          (fun id ->
            let path = seg_path dir id in
            scrub_entry ~seg_id:id ~seg_path:path
              (try Disk.read_file disk path with Sys_error _ -> ""))
          live
      in
      let keep_ids =
        List.filter_map
          (fun e -> if e.verdict = Scrub_unreadable then None else Some e.seg_id)
          entries
      in
      if not dry_run then begin
        List.iter
          (fun e ->
            match e.action with
            | Scrub_truncated -> Disk.truncate_file disk e.seg_path e.bytes_kept
            | Scrub_quarantined ->
              if Disk.exists disk e.seg_path then begin
                let qdir = Filename.concat dir quarantine_name in
                Disk.mkdir_p disk qdir;
                Disk.rename disk e.seg_path
                  (Filename.concat qdir (seg_name e.seg_id))
              end
            | Scrub_none -> ())
          entries;
        if keep_ids <> live then write_manifest disk dir keep_ids
      end;
      count_scrub ~applied:(not dry_run) entries;
      Ok
        {
          store = dir;
          applied = not dry_run;
          recovered = keep_ids <> [];
          segments = entries;
        }

let scrub_to_json (r : scrub_report) =
  let esc = Poc_obs.Metrics.json_escape in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"store\":\"%s\",\"mode\":\"segmented\",\"applied\":%b,\"recovered\":%b"
    (esc r.store) r.applied r.recovered;
  Buffer.add_string b ",\"segments\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"segment\":%d,\"path\":\"%s\",\"records_ok\":%d,\"verdict\":\"%s\",\"action\":\"%s\",\"bytes_kept\":%d,\"bytes_dropped\":%d}"
        e.seg_id (esc e.seg_path) e.records_ok
        (verdict_to_string e.verdict)
        (action_to_string e.action)
        e.bytes_kept e.bytes_dropped)
    r.segments;
  Buffer.add_string b "],\"quarantined\":[";
  let quarantined =
    List.filter_map
      (fun e -> if e.action = Scrub_quarantined then Some e.seg_id else None)
      r.segments
  in
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int id))
    quarantined;
  Printf.bprintf b "],\"quarantined_count\":%d}\n" (List.length quarantined);
  Buffer.contents b
