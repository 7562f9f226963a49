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

(* --- field codecs ------------------------------------------------------- *)

let put_rule w rule =
  Codec.put_u8 w
    (match rule with
    | Acceptability.Handle_load -> 0
    | Acceptability.Single_link_failure -> 1
    | Acceptability.Per_pair_failure -> 2)

let get_rule r =
  match Codec.get_u8 r with
  | 0 -> Acceptability.Handle_load
  | 1 -> Acceptability.Single_link_failure
  | 2 -> Acceptability.Per_pair_failure
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad acceptability tag %d" n))

let put_phase w phase =
  Codec.put_u8 w
    (match phase with
    | Fault.Pre_auction -> 0
    | Fault.Pre_settle -> 1
    | Fault.Post_settle -> 2)

let get_phase r =
  match Codec.get_u8 r with
  | 0 -> Fault.Pre_auction
  | 1 -> Fault.Pre_settle
  | 2 -> Fault.Post_settle
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad phase tag %d" n))

let put_disk_fault w = function
  | Disk.Short_write { drop } ->
    Codec.put_u8 w 0;
    Codec.put_int w drop
  | Disk.Torn_rename -> Codec.put_u8 w 1
  | Disk.Lying_fsync { drop } ->
    Codec.put_u8 w 2;
    Codec.put_int w drop
  | Disk.Corrupt_byte { seed } ->
    Codec.put_u8 w 3;
    Codec.put_int w seed

let get_disk_fault r =
  match Codec.get_u8 r with
  | 0 -> Disk.Short_write { drop = Codec.get_int r }
  | 1 -> Disk.Torn_rename
  | 2 -> Disk.Lying_fsync { drop = Codec.get_int r }
  | 3 -> Disk.Corrupt_byte { seed = Codec.get_int r }
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad disk-fault tag %d" n))

let put_event w = function
  | Fault.Link_down id ->
    Codec.put_u8 w 0;
    Codec.put_int w id
  | Fault.Link_up id ->
    Codec.put_u8 w 1;
    Codec.put_int w id
  | Fault.Bp_exit bp ->
    Codec.put_u8 w 2;
    Codec.put_int w bp
  | Fault.Withdraw ids ->
    Codec.put_u8 w 3;
    Codec.put_list w Codec.put_int ids
  | Fault.Surge f ->
    Codec.put_u8 w 4;
    Codec.put_f64 w f
  | Fault.Surge_over f ->
    Codec.put_u8 w 5;
    Codec.put_f64 w f
  | Fault.Crash_point phase ->
    Codec.put_u8 w 6;
    put_phase w phase
  | Fault.Disk_point (phase, fault) ->
    Codec.put_u8 w 7;
    put_phase w phase;
    put_disk_fault w fault

let get_event r =
  match Codec.get_u8 r with
  | 0 -> Fault.Link_down (Codec.get_int r)
  | 1 -> Fault.Link_up (Codec.get_int r)
  | 2 -> Fault.Bp_exit (Codec.get_int r)
  | 3 -> Fault.Withdraw (Codec.get_list r Codec.get_int)
  | 4 -> Fault.Surge (Codec.get_f64 r)
  | 5 -> Fault.Surge_over (Codec.get_f64 r)
  | 6 -> Fault.Crash_point (get_phase r)
  | 7 ->
    let phase = get_phase r in
    let fault = get_disk_fault r in
    Fault.Disk_point (phase, fault)
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad event tag %d" n))

let put_status w = function
  | Healthy -> Codec.put_u8 w 0
  | Degraded step -> (
    Codec.put_u8 w 1;
    match step with
    | Ladder.Relax_demand f ->
      Codec.put_u8 w 0;
      Codec.put_f64 w f
    | Ladder.Step_down rule ->
      Codec.put_u8 w 1;
      put_rule w rule
    | Ladder.Connectivity_only -> Codec.put_u8 w 2
    | Ladder.External_transit -> Codec.put_u8 w 3)
  | Carried -> Codec.put_u8 w 2
  | Blackout -> Codec.put_u8 w 3

let get_status r =
  match Codec.get_u8 r with
  | 0 -> Healthy
  | 1 ->
    Degraded
      (match Codec.get_u8 r with
      | 0 -> Ladder.Relax_demand (Codec.get_f64 r)
      | 1 -> Ladder.Step_down (get_rule r)
      | 2 -> Ladder.Connectivity_only
      | 3 -> Ladder.External_transit
      | n -> raise (Codec.Corrupt (Printf.sprintf "bad ladder-step tag %d" n)))
  | 2 -> Carried
  | 3 -> Blackout
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad status tag %d" n))

let put_report w (er : epoch_report) =
  Codec.put_int w er.epoch;
  put_status w er.status;
  Codec.put_f64 w er.spend;
  Codec.put_f64 w er.price_per_gbps;
  Codec.put_f64 w er.delivered_fraction;
  Codec.put_int w er.selected_links;
  Codec.put_int w er.recalled_links;
  Codec.put_int w er.active_faults;
  Codec.put_int w er.ladder_attempts;
  Codec.put_option w Codec.put_f64 er.ledger_conservation;
  Codec.put_option w Codec.put_f64 er.posted_price

let get_report r =
  let epoch = Codec.get_int r in
  let status = get_status r in
  let spend = Codec.get_f64 r in
  let price_per_gbps = Codec.get_f64 r in
  let delivered_fraction = Codec.get_f64 r in
  let selected_links = Codec.get_int r in
  let recalled_links = Codec.get_int r in
  let active_faults = Codec.get_int r in
  let ladder_attempts = Codec.get_int r in
  let ledger_conservation = Codec.get_option r Codec.get_f64 in
  let posted_price = Codec.get_option r Codec.get_f64 in
  {
    epoch;
    status;
    spend;
    price_per_gbps;
    delivered_fraction;
    selected_links;
    recalled_links;
    active_faults;
    ladder_attempts;
    ledger_conservation;
    posted_price;
  }

let put_violation w (v : violation) =
  Codec.put_int w v.epoch;
  Codec.put_string w v.invariant;
  Codec.put_string w v.detail

let get_violation r =
  let epoch = Codec.get_int r in
  let invariant = Codec.get_string r in
  let detail = Codec.get_string r in
  { epoch; invariant; detail }

let put_snapshot_body w (s : snapshot) =
  Codec.put_int w s.at_epoch;
  Codec.put_i64 w s.prng_state;
  Codec.put_f64_array w s.cost_level;
  Codec.put_list w Codec.put_int s.down;
  Codec.put_list w Codec.put_int s.gone;
  Codec.put_f64 w s.surge;
  Codec.put_f64 w s.demand_scale;
  Codec.put_option w
    (fun w (ids, cost) ->
      Codec.put_list w Codec.put_int ids;
      Codec.put_f64 w cost)
    s.last_good

let get_snapshot_body r =
  let at_epoch = Codec.get_int r in
  let prng_state = Codec.get_i64 r in
  let cost_level = Codec.get_f64_array r in
  let down = Codec.get_list r Codec.get_int in
  let gone = Codec.get_list r Codec.get_int in
  let surge = Codec.get_f64 r in
  let demand_scale = Codec.get_f64 r in
  let last_good =
    Codec.get_option r (fun r ->
        let ids = Codec.get_list r Codec.get_int in
        let cost = Codec.get_f64 r in
        (ids, cost))
  in
  { at_epoch; prng_state; cost_level; down; gone; surge; demand_scale; last_good }

(* --- digest ------------------------------------------------------------- *)

let digest ~(market : Epochs.config) schedule =
  let w = Codec.writer () in
  Codec.put_int w market.Epochs.epochs;
  Codec.put_f64 w market.Epochs.cost_trend;
  Codec.put_f64 w market.Epochs.cost_volatility;
  Codec.put_f64 w market.Epochs.demand_growth;
  Codec.put_int w market.Epochs.seed;
  Codec.put_list w
    (fun w (bp, strategy) ->
      Codec.put_int w bp;
      match strategy with
      | Epochs.Truthful -> Codec.put_u8 w 0
      | Epochs.Markup m ->
        Codec.put_u8 w 1;
        Codec.put_f64 w m
      | Epochs.Recallable f ->
        Codec.put_u8 w 2;
        Codec.put_f64 w f)
    market.Epochs.strategies;
  (* The ladder, as the bytes its former settings wrote (factors,
     step-down on, an 8-rung budget), so older stores still resume. *)
  Codec.put_list w Codec.put_f64 Ladder.relax_factors;
  Codec.put_bool w true;
  Codec.put_int w 8;
  (* Crash and disk-fault points are excluded: they kill the process,
     not the market, and a resumed run ignores them — so a journal
     written under a crash-injecting schedule can be resumed under the
     same schedule with or without its [Crash]/[Storage] specs. *)
  Codec.put_list w
    (fun w (epoch, ev) ->
      Codec.put_int w epoch;
      put_event w ev)
    (List.filter
       (fun (_, ev) ->
         match ev with
         | Fault.Crash_point _ | Fault.Disk_point _ -> false
         | _ -> true)
       (Fault.events schedule));
  Int64.of_int (Codec.crc32 (Codec.contents w))

(* --- record payloads ---------------------------------------------------- *)

let epoch_payload (rec_ : epoch_record) =
  let w = Codec.writer () in
  Codec.put_u8 w 1;
  put_report w rec_.report;
  Codec.put_list w put_event rec_.events;
  Codec.put_list w Codec.put_int rec_.selected;
  Codec.put_list w put_violation rec_.violations;
  Codec.contents w

let snapshot_payload (s : snapshot) =
  let w = Codec.writer () in
  Codec.put_u8 w 2;
  put_snapshot_body w s;
  Codec.contents w

let complete_payload incidents =
  let w = Codec.writer () in
  Codec.put_u8 w 3;
  Codec.put_string w incidents;
  Codec.contents w

let seg_header_payload (h : header) ~seg_id ~budget ~carry =
  let w = Codec.writer () in
  Codec.put_u8 w 4;
  Codec.put_u32 w magic;
  Codec.put_int w h.version;
  Codec.put_int w seg_id;
  Codec.put_int w budget;
  Codec.put_int w h.market_seed;
  Codec.put_int w h.market_epochs;
  Codec.put_int w h.n_bps;
  Codec.put_int w h.snapshot_every;
  Codec.put_i64 w h.digest;
  Codec.put_option w
    (fun w c ->
      put_snapshot_body w c.at;
      Codec.put_list w put_report c.carry_reports;
      Codec.put_list w put_violation c.carry_violations)
    carry;
  Codec.contents w

let manifest_payload ids =
  let w = Codec.writer () in
  Codec.put_u8 w 5;
  Codec.put_u32 w magic;
  Codec.put_int w version;
  Codec.put_list w Codec.put_int ids;
  Codec.contents w

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
let write_frame t payload = raw_append t (Codec.frame payload)

let write_manifest disk dir ids =
  Disk.write_file_atomic disk (manifest_path dir)
    (Codec.frame (manifest_payload ids))

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
  write_frame t (seg_header_payload header ~seg_id:1 ~budget ~carry:None);
  write_manifest disk path [ 1 ];
  t

let wants_rotation t = Log.size t.log > t.budget

let rotate t (c : carry) =
  let next_id = t.seg_id + 1 in
  let log = Log.create t.disk (seg_path t.dir next_id) in
  log_append log
    (Codec.frame
       (seg_header_payload t.header ~seg_id:next_id ~budget:t.budget
          ~carry:(Some c)));
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

let append_epoch t rec_ = write_frame t (epoch_payload rec_)
let append_snapshot t s = write_frame t (snapshot_payload s)
let append_complete t ~incidents = write_frame t (complete_payload incidents)

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
  let r = Codec.reader payload in
  if Codec.get_u8 r <> 4 then Error "first record is not a segment header"
  else if Codec.get_u32 r <> magic then
    Error "bad magic: not a POC journal segment"
  else
    let v = Codec.get_int r in
    if v <> version then
      Error
        (Printf.sprintf
           "journal format version %d, but this build reads version %d" v
           version)
    else
      let seg_id = Codec.get_int r in
      let budget = Codec.get_int r in
      let market_seed = Codec.get_int r in
      let market_epochs = Codec.get_int r in
      let n_bps = Codec.get_int r in
      let snapshot_every = Codec.get_int r in
      let digest = Codec.get_i64 r in
      let carry =
        Codec.get_option r (fun r ->
            let at = get_snapshot_body r in
            let carry_reports = Codec.get_list r get_report in
            let carry_violations = Codec.get_list r get_violation in
            { at; carry_reports; carry_violations })
      in
      Ok
        ( { version = v; market_seed; market_epochs; n_bps; snapshot_every; digest },
          seg_id,
          budget,
          carry )

let parse_record payload =
  let r = Codec.reader payload in
  match Codec.get_u8 r with
  | 1 ->
    let report = get_report r in
    let events = Codec.get_list r get_event in
    let selected = Codec.get_list r Codec.get_int in
    let violations = Codec.get_list r get_violation in
    `Epoch { report; events; selected; violations }
  | 2 -> `Snapshot (get_snapshot_body r)
  | 3 -> `Complete (Codec.get_string r)
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown record kind %d" n))

(* The record frames after a header ending at [start], up to the first
   torn or unparseable one; resume truncates at the end of the last
   snapshot among them. *)
let scan_records data ~start =
  let s = Codec.scan ~from:start ~decode:parse_record data in
  let records, snapshot, complete, resume =
    List.fold_left
      (fun (records, snapshot, complete, resume) (r, next) ->
        match r with
        | `Epoch rec_ -> (rec_ :: records, snapshot, complete, resume)
        | `Snapshot snap -> (records, Some snap, complete, next)
        | `Complete incidents -> (records, snapshot, Some incidents, resume))
      ([], None, None, start) s.Codec.frames
  in
  (List.rev records, snapshot, complete, s.Codec.verdict <> Codec.Clean,
   s.Codec.valid, resume)

let read_manifest disk dir =
  match Log.read_single disk (manifest_path dir) with
  | None -> None
  | Some payload -> (
    let r = Codec.reader payload in
    try
      if Codec.get_u8 r <> 5 || Codec.get_u32 r <> magic
         || Codec.get_int r <> version
      then None
      else Some (Codec.get_list r Codec.get_int)
    with Codec.Corrupt _ -> None)

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
          | Ok (header, seg_id, budget, carry) ->
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
      let s = Codec.scan ~from:next ~decode:parse_record data in
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
