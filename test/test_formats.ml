(* Byte pins for every durable and wire format: journal segments (with
   and without a carry), MANIFEST, the journal digest's input, intake.log,
   FLIGHT, the daemon's wire frames, the fleet's RESULT and FLEET, and the
   registry's RUNS.  Each pin writes fixed values through the public
   writer and compares the bytes with a literal: a change to any of these
   formats strands every store, log or peer written before it, so it must
   show here, not only in a round trip through the same build.  No pinned
   byte depends on an auction outcome. *)

module Journal = Poc_resilience.Journal
module Fault = Poc_resilience.Fault
module Ladder = Poc_resilience.Ladder
module Disk = Poc_resilience.Disk
module Supervisor = Poc_resilience.Supervisor
module Acceptability = Poc_auction.Acceptability
module Epochs = Poc_market.Epochs
module Planner = Poc_core.Planner
module Flight = Poc_obs.Flight
module Framing = Poc_daemon.Framing
module Intake = Poc_daemon.Intake
module Admission = Poc_daemon.Admission
module Registry = Poc_daemon.Registry
module Protocol = Poc_daemon.Protocol
module Driver = Poc_fleet.Driver

let hex s =
  String.concat "" (List.init (String.length s) (fun i ->
       Printf.sprintf "%02x" (Char.code s.[i])))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "poc_formats" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- journal --- *)

let header =
  {
    Journal.version = Journal.version;
    market_seed = 42;
    market_epochs = 9;
    n_bps = 3;
    snapshot_every = 2;
    digest = 0x0123456789ABCDEFL;
  }

let report epoch status =
  {
    Journal.epoch;
    status;
    spend = 1234.5 +. float_of_int epoch;
    price_per_gbps = 0.1;
    delivered_fraction = 0.75;
    selected_links = 7;
    recalled_links = 1;
    active_faults = 2;
    ladder_attempts = 3;
    ledger_conservation = (if epoch mod 2 = 0 then Some 1e-9 else None);
    posted_price = (if epoch mod 3 = 0 then None else Some 2.5);
  }

(* Every status, every ladder step and every fault event, each once. *)
let statuses =
  [
    Journal.Healthy;
    Journal.Degraded (Ladder.Relax_demand 0.9);
    Journal.Degraded (Ladder.Step_down Acceptability.Handle_load);
    Journal.Degraded (Ladder.Step_down Acceptability.Single_link_failure);
    Journal.Degraded (Ladder.Step_down Acceptability.Per_pair_failure);
    Journal.Degraded Ladder.Connectivity_only;
    Journal.Degraded Ladder.External_transit;
    Journal.Carried;
    Journal.Blackout;
  ]

let events =
  [
    Fault.Link_down 3;
    Fault.Link_up 4;
    Fault.Bp_exit 1;
    Fault.Withdraw [ 5; 6; 9 ];
    Fault.Surge 1.5;
    Fault.Surge_over 1.5;
    Fault.Crash_point Fault.Pre_auction;
    Fault.Disk_point (Fault.Pre_settle, Disk.Short_write { drop = 3 });
    Fault.Disk_point (Fault.Post_settle, Disk.Torn_rename);
    Fault.Disk_point (Fault.Pre_auction, Disk.Lying_fsync { drop = 2 });
    Fault.Disk_point (Fault.Pre_settle, Disk.Corrupt_byte { seed = 77 });
  ]

let violation epoch =
  { Journal.epoch; invariant = "conservation"; detail = "off by 1e-6" }

let snapshot =
  {
    Journal.at_epoch = 4;
    prng_state = -3L;
    cost_level = [| 1.0; 0.95; nan |];
    down = [ 2; 8 ];
    gone = [];
    surge = 1.25;
    demand_scale = 1.1;
    last_good = Some ([ 1; 2; 3 ], 999.25);
  }

(* Segment 1 holds one epoch record per status (the first carrying every
   event and a violation), a snapshot and a completion record; the
   rotation opens segment 2 with a carry.  MANIFEST is read after create
   and after the rotation. *)
let journal_files () =
  with_tmp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      let j = Journal.create ~segment_bytes:64 store header in
      let manifest_1 = read_file (Filename.concat store "MANIFEST") in
      List.iteri
        (fun i status ->
          Journal.append_epoch j
            {
              Journal.report = report (i + 1) status;
              events = (if i = 0 then events else []);
              selected = [ i; i + 10 ];
              violations = (if i = 0 then [ violation 1 ] else []);
            })
        statuses;
      Journal.append_snapshot j snapshot;
      Journal.append_complete j ~incidents:"epoch 2: link 3 down\n";
      Journal.rotate j
        {
          Journal.at = { snapshot with last_good = None };
          carry_reports = [ report 1 Journal.Healthy; report 2 Journal.Carried ];
          carry_violations = [ violation 2 ];
        };
      Journal.append_epoch j
        {
          Journal.report = report 5 Journal.Healthy;
          events = [];
          selected = [];
          violations = [];
        };
      Journal.close j;
      ( manifest_1,
        read_file (Filename.concat store "00001.seg"),
        read_file (Filename.concat store "00002.seg"),
        read_file (Filename.concat store "MANIFEST") ))

let journal_digest () =
  let config =
    Planner.scaled_config ~sites:8 ~bps:3
      { Planner.default_config with Planner.seed = 7 }
  in
  match Planner.build config with
  | Error msg -> Alcotest.failf "plan failed: %s" msg
  | Ok plan -> (
    match
      Fault.compile plan.Planner.wan ~seed:5
        [
          Fault.Link_failure { at_epoch = 2; count = 1; duration = 2 };
          Fault.Bp_bankruptcy { at_epoch = 3; bp = 1 };
          Fault.Traffic_surge { at_epoch = 4; factor = 1.5; duration = 1 };
          Fault.Crash { at_epoch = 5; phase = Fault.Pre_settle };
        ]
    with
    | Error msg -> Alcotest.failf "schedule failed: %s" msg
    | Ok schedule ->
      let market =
        {
          Epochs.default_config with
          Epochs.epochs = 6;
          seed = 11;
          strategies =
            [ (0, Epochs.Truthful); (1, Epochs.Markup 1.2);
              (2, Epochs.Recallable 0.3) ];
        }
      in
      Journal.digest ~market schedule)

(* --- intake.log --- *)

let intake_file () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "intake.log" in
      let t = Intake.create path in
      List.iter (Intake.append t)
        [
          {
            Intake.entry =
              {
                Admission.seq = 1;
                apply_epoch = 2;
                priority = 0;
                payload = Supervisor.Scale_bid { bp = 1; factor = 1.07 };
              };
            displaces = None;
          };
          {
            Intake.entry =
              {
                Admission.seq = 2;
                apply_epoch = 3;
                priority = -1;
                payload = Supervisor.Scale_demand { factor = 0.95 };
              };
            displaces = Some 1;
          };
        ];
      Intake.close t;
      read_file path)

(* --- FLIGHT --- *)

let flight_image () =
  let t = Flight.create ~capacity:8 () in
  List.iteri
    (fun i kind ->
      Flight.emit t ~ts_us:(1000.5 +. float_of_int i) ~epoch:(i - 1)
        ~phase:(if i = 0 then "" else "auction") kind)
    [
      Flight.Span_open { name = "epoch" };
      Flight.Span_close { name = "epoch"; dur_us = 12.25 };
      Flight.Event { name = "bid"; detail = "bp=1 factor=1.07" };
      Flight.Incident { incident = "fault"; detail = "link 3 down" };
      Flight.Metric { name = "poc_requests_total"; delta = 1.0 };
    ];
  Flight.image t

(* --- wire frames --- *)

let wire_frames () =
  List.map Framing.encode_msg
    [
      Framing.Open { run = None; epochs = None; seed = None };
      Framing.Open { run = Some 3; epochs = Some 12; seed = Some (-5) };
      Framing.Bid { run = 1; seq = 7; bp = 2; factor = 1.07; priority = 3 };
      Framing.Matrix { run = 2; seq = 8; factor = 0.95; priority = -1 };
      Framing.Epoch { run = 0; count = 4 };
      Framing.Status { run = 1 };
      Framing.Scrub { run = 2 };
      Framing.Close { run = 3 };
      Framing.Runs;
      Framing.Metrics;
      Framing.Quiesce;
      Framing.Shutdown;
    ]
  @ List.map Framing.encode_reply
      [
        { Framing.run = 1; final = false; line = "| run=1 state=serving" };
        { Framing.run = 1; final = true; line = "OK 2 runs" };
      ]

(* --- RESULT --- *)

let fleet_config store =
  {
    (Driver.default_config ~store) with
    Driver.months = 1;
    seed = 11;
    topologies = 1;
    sites = 16;
    bps = 5;
    epochs = 4;
    segment_bytes = 1024;
    snapshot_every = 2;
  }

let result_frame () =
  let scen = Driver.scenario (fleet_config "unused") 0 in
  Driver.encode_outcome scen
    {
      Driver.completed = true;
      kills = 2;
      recovered =
        { Driver.r_crash = 1; r_short_write = 2; r_torn_rename = 3;
          r_lying_fsync = 4; r_corrupt_byte = 5 };
      scrub_truncated = 6;
      scrub_quarantined = 7;
      restarts = 8;
      healthy = 9;
      degraded = 10;
      carried = 11;
      blackout = 12;
      incidents = 13;
      violations = 14;
      ladder_activations = 15;
      total_spend = 16.5;
      mean_price = 0.17;
      mean_delivered = 0.875;
      pob = 1.9;
    }

(* --- RUNS and FLEET --- *)

let runs_file () =
  with_tmp_dir (fun root ->
      let market = { Epochs.default_config with Epochs.epochs = 6; seed = 7 } in
      match
        Registry.create ~runs:1 ~max_runs:2 ~root
          (Lazy.force Fixtures.small_plan) ~market ()
      with
      | Error msg -> Alcotest.failf "registry create failed: %s" msg
      | Ok reg ->
        List.iter
          (fun line ->
            match Protocol.parse_command line with
            | Error msg -> Alcotest.failf "bad command %S: %s" line msg
            | Ok c -> ignore (Registry.dispatch reg c))
          [ "OPEN 4 99"; "CLOSE 1" ];
        read_file (Filename.concat root "RUNS"))

let fleet_file () =
  with_tmp_dir (fun root ->
      let store = Filename.concat root "fleet" in
      match Driver.run ~kill_after:1 (fleet_config store) with
      | Error msg -> Alcotest.failf "fleet run failed: %s" msg
      | Ok _ -> read_file (Filename.concat store "FLEET"))

(* --- pins --- *)

let pin name expected bytes = Alcotest.(check string) name expected (hex bytes)

let test_journal () =
  let manifest_1, seg_1, seg_2, manifest_2 = journal_files () in
  pin "MANIFEST after create"
    "190000005eed8572054a434f5001000000000000000100000001000000000000\
     00"
    manifest_1;
  pin "segment 1: header, every record kind"
    "46000000e8b2609e044a434f5001000000000000000100000000000000400000\
     00000000002a0000000000000009000000000000000300000000000000020000\
     0000000000efcdab896745230100ff000000cc95c7b401010000000000000000\
     00000000004e93409a9999999999b93f000000000000e83f0700000000000000\
     0100000000000000020000000000000003000000000000000001000000000000\
     04400b0000000003000000000000000104000000000000000201000000000000\
     0003030000000500000000000000060000000000000009000000000000000400\
     0000000000f83f05000000000000f83f06000701000300000000000000070201\
     07000202000000000000000701034d0000000000000002000000000000000000\
     00000a000000000000000100000001000000000000000c000000636f6e736572\
     766174696f6e0b0000006f66662062792031652d367900000030849542010200\
     0000000000000100cdccccccccccec3f00000000005293409a9999999999b93f\
     000000000000e83f070000000000000001000000000000000200000000000000\
     03000000000000000195d626e80b2e113e010000000000000440000000000200\
     000001000000000000000b000000000000000000000062000000bc3699510103\
     0000000000000001010000000000005693409a9999999999b93f000000000000\
     e83f070000000000000001000000000000000200000000000000030000000000\
     00000000000000000200000002000000000000000c0000000000000000000000\
     720000009ac7657301040000000000000001010100000000005a93409a999999\
     9999b93f000000000000e83f0700000000000000010000000000000002000000\
     0000000003000000000000000195d626e80b2e113e0100000000000004400000\
     00000200000003000000000000000d00000000000000000000006a0000003a1f\
     8b7001050000000000000001010200000000005e93409a9999999999b93f0000\
     00000000e83f0700000000000000010000000000000002000000000000000300\
     0000000000000001000000000000044000000000020000000400000000000000\
     0e00000000000000000000006900000040a0908d010600000000000000010200\
     000000006293409a9999999999b93f000000000000e83f070000000000000001\
     00000000000000020000000000000003000000000000000195d626e80b2e113e\
     00000000000200000005000000000000000f0000000000000000000000690000\
     00e8012240010700000000000000010300000000006693409a9999999999b93f\
     000000000000e83f070000000000000001000000000000000200000000000000\
     0300000000000000000100000000000004400000000002000000060000000000\
     0000100000000000000000000000700000003db4d59201080000000000000002\
     00000000006a93409a9999999999b93f000000000000e83f0700000000000000\
     0100000000000000020000000000000003000000000000000195d626e80b2e11\
     3e01000000000000044000000000020000000700000000000000110000000000\
     00000000000060000000549ec1a40109000000000000000300000000006e9340\
     9a9999999999b93f000000000000e83f07000000000000000100000000000000\
     0200000000000000030000000000000000000000000002000000080000000000\
     00001200000000000000000000007a0000008d41be26020400000000000000fd\
     ffffffffffffff03000000000000000000f03f666666666666ee3f0100000000\
     00f87f0200000002000000000000000800000000000000000000000000000000\
     00f43f9a9999999999f13f010300000001000000000000000200000000000000\
     030000000000000000000000003a8f401a000000c9381246031500000065706f\
     636820323a206c696e6b203320646f776e0a"
    seg_1;
  pin "segment 2: header with a carry"
    "68010000f9214136044a434f5001000000000000000200000000000000400000\
     00000000002a0000000000000009000000000000000300000000000000020000\
     0000000000efcdab8967452301010400000000000000fdffffffffffffff0300\
     0000000000000000f03f666666666666ee3f010000000000f87f020000000200\
     000000000000080000000000000000000000000000000000f43f9a9999999999\
     f13f000200000001000000000000000000000000004e93409a9999999999b93f\
     000000000000e83f070000000000000001000000000000000200000000000000\
     0300000000000000000100000000000004400200000000000000020000000000\
     5293409a9999999999b93f000000000000e83f07000000000000000100000000\
     000000020000000000000003000000000000000195d626e80b2e113e01000000\
     00000004400100000002000000000000000c000000636f6e736572766174696f\
     6e0b0000006f66662062792031652d3658000000387736ce0105000000000000\
     000000000000005e93409a9999999999b93f000000000000e83f070000000000\
     0000010000000000000002000000000000000300000000000000000100000000\
     00000440000000000000000000000000"
    seg_2;
  pin "MANIFEST after rotation"
    "2100000039851a67054a434f5001000000000000000200000001000000000000\
     000200000000000000"
    manifest_2

let test_digest () =
  Alcotest.(check int64) "digest input bytes" 4075697336L (journal_digest ())

let test_intake () = pin "intake.log"
    "2a000000d11d6a1c0001000000000000001f85eb51b81ef13f01000000000000\
     0002000000000000000000000000000000002a0000001883129e016666666666\
     66ee3f02000000000000000300000000000000ffffffffffffffff0101000000\
     00000000"
    (intake_file ())
let test_flight () = pin "FLIGHT image"
    "160000005f10bad006000000504f43464c540100000008000000000000002600\
     0000bd415ad60000000000000000000000000000448f40ffffffffffffffff00\
     0000000500000065706f6368350000008aeed9f0010100000000000000000000\
     00004c8f4000000000000000000700000061756374696f6e0500000065706f63\
     6800000000008028403f0000004c3a4000020200000000000000000000000054\
     8f4001000000000000000700000061756374696f6e0300000062696410000000\
     62703d3120666163746f723d312e30373c000000c75b2b3b0303000000000000\
     0000000000005c8f4002000000000000000700000061756374696f6e05000000\
     6661756c740b0000006c696e6b203320646f776e42000000142cb53a04040000\
     00000000000000000000648f4003000000000000000700000061756374696f6e\
     12000000706f635f72657175657374735f746f74616c000000000000f03f"
    (flight_image ())

let test_wire () =
  List.iteri
    (fun i (expected, frame) -> pin (Printf.sprintf "frame %d" i) expected frame)
    (List.combine
       [
        "b10400000079b8f89901000000";
        "b11c00000031b803b001010300000000000000010c0000000000000001fbffff\
         ffffffffff";
        "b129000000a26695240201000000000000000700000000000000020000000000\
         00001f85eb51b81ef13f0300000000000000";
        "b1210000007aa975f80302000000000000000800000000000000666666666666\
         ee3fffffffffffffffff";
        "b11100000088d8ad3e0400000000000000000400000000000000";
        "b1090000007f513460050100000000000000";
        "b109000000596a36d7060200000000000000";
        "b109000000847ee70c070300000000000000";
        "b101000000bf67d9dc08";
        "b1010000002957deab09";
        "b1010000009306d7320a";
        "b1010000000536d0450b";
        "b12200000037a6e4d0400100000000000000150000007c2072756e3d31207374\
         6174653d73657276696e67";
        "b116000000c1796cfe410100000000000000090000004f4b20322072756e73";
       ]
       (wire_frames ()))

let test_result () = pin "RESULT"
    "b2000000e69005c8010c0000006d30303030302d706c61696e01020000000000\
     0000010000000000000002000000000000000300000000000000040000000000\
     0000050000000000000006000000000000000700000000000000080000000000\
     000009000000000000000a000000000000000b000000000000000c0000000000\
     00000d000000000000000e000000000000000f00000000000000000000000080\
     3040c3f5285c8fc2c53f000000000000ec3f666666666666fe3f"
    (result_frame ())
let test_runs () = pin "RUNS"
    "190000007cfe1015010000000000000000060000000000000007000000000000\
     0019000000791034470101000000000000000400000000000000630000000000\
     000009000000b63c5504020100000000000000"
    (runs_file ())
let test_fleet () = pin "FLEET"
    "44000000f36cc4e10101000000000000000101010b0000000000000001000000\
     0000000010000000000000000500000000000000040000000000000000040000\
     000000000200000000000000"
    (fleet_file ())

let suite =
  [
    Alcotest.test_case "journal segments and MANIFEST bytes pinned" `Quick
      test_journal;
    Alcotest.test_case "journal digest input pinned" `Quick test_digest;
    Alcotest.test_case "intake.log bytes pinned" `Quick test_intake;
    Alcotest.test_case "FLIGHT image bytes pinned" `Quick test_flight;
    Alcotest.test_case "wire frame bytes pinned" `Quick test_wire;
    Alcotest.test_case "RESULT bytes pinned" `Quick test_result;
    Alcotest.test_case "RUNS bytes pinned" `Quick test_runs;
    Alcotest.test_case "FLEET bytes pinned" `Quick test_fleet;
  ]
