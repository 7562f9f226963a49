(* A chaos month for the POC (fault injection + graceful degradation).

   The paper's operational claim is that a leased-line POC stays
   viable under churn: links fail, CSP-backed BPs recall capacity or
   exit the market, and an epoch's auction can come up infeasible.
   This walkthrough injects exactly that — a BP bankruptcy plus two
   concurrent link failures mid-run, then a one-epoch wave in which
   every BP recalls its whole portfolio — and shows the supervised
   control loop degrade gracefully instead of aborting: the
   degradation ladder keeps some service priced and running, the
   incident log records epochs-to-recovery and the spend penalty, and
   the settlement ledger still nets to zero at the end.

   Run with:  dune exec examples/chaos_month.exe

   Durability flags (the kill-and-resume walkthrough in README.md):

     --journal PATH        write a crash-safe journal of the run into the
                           store directory PATH
     --segment-bytes N     rotate the store past N bytes per segment (GC
                           behind the newest checkpoint); default is an
                           unbounded budget, one segment
     --crash EPOCH:PHASE   inject a process crash (phases: pre_auction,
                           pre_settle, post_settle); exits with code 10
     --disk-fault EPOCH:PHASE:KIND[:ARG]
                           power-cut with storage damage: short_write[:DROP],
                           torn_rename, lying_fsync[:DROP],
                           corrupt_byte[:SEED]; exits with code 10
     --resume PATH         recover from a journal store and finish the
                           run (run `poc-cli scrub` first if resume
                           reports unreadable segments)
     --jobs N              worker domains for the auction layer
                           (default 1 = serial; outputs are identical
                           at every value)

   Crash/resume chatter goes to stderr, so the stdout of a resumed run
   is byte-identical to an uninterrupted one — diff them to check.
   The same holds across --jobs values: stdout and the journal are
   byte-identical whether the auctions ran serial or parallel. *)

module Planner = Poc_core.Planner
module Settlement = Poc_core.Settlement
module Epochs = Poc_market.Epochs
module Wan = Poc_topology.Wan
module Fault = Poc_resilience.Fault
module Supervisor = Poc_resilience.Supervisor

let usage () =
  prerr_endline
    "usage: chaos_month [--journal PATH] [--segment-bytes N] [--resume PATH] \
     [--crash EPOCH:PHASE] [--disk-fault EPOCH:PHASE:KIND[:ARG]] [--jobs N]";
  exit 2

let parse_crash spec =
  let bad () =
    Printf.eprintf
      "bad --crash %S: expected EPOCH:PHASE with PHASE one of pre_auction, \
       pre_settle, post_settle\n"
      spec;
    exit 2
  in
  match String.index_opt spec ':' with
  | None -> bad ()
  | Some i -> (
    let epoch = String.sub spec 0 i in
    let phase = String.sub spec (i + 1) (String.length spec - i - 1) in
    match (int_of_string_opt epoch, Fault.phase_of_string phase) with
    | Some at_epoch, Some phase -> Fault.Crash { at_epoch; phase }
    | _ -> bad ())

(* EPOCH:PHASE:KIND[:ARG]; the kind keeps any colons of its own. *)
let parse_disk_fault spec =
  let bad msg =
    Printf.eprintf "bad --disk-fault %S: %s\n" spec msg;
    exit 2
  in
  match String.split_on_char ':' spec with
  | epoch :: phase :: (_ :: _ as rest) -> (
    let kind = String.concat ":" rest in
    match
      ( int_of_string_opt epoch,
        Fault.phase_of_string phase,
        Poc_resilience.Disk.fault_of_string kind )
    with
    | Some at_epoch, Some phase, Ok fault ->
      Fault.Storage { at_epoch; phase; fault }
    | None, _, _ -> bad "EPOCH must be an integer"
    | _, None, _ -> bad "PHASE must be pre_auction, pre_settle or post_settle"
    | _, _, Error msg -> bad msg)
  | _ -> bad "expected EPOCH:PHASE:KIND[:ARG]"

let () =
  let journal = ref None and resume = ref None and crashes = ref [] in
  let jobs = ref 1 and segment_bytes = ref None in
  let rec parse = function
    | [] -> ()
    | "--journal" :: path :: rest ->
      journal := Some path;
      parse rest
    | "--segment-bytes" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
        segment_bytes := Some n;
        parse rest
      | Some _ | None ->
        Printf.eprintf "bad --segment-bytes %S: expected a positive integer\n"
          n;
        exit 2)
    | "--resume" :: path :: rest ->
      resume := Some path;
      parse rest
    | "--crash" :: spec :: rest ->
      crashes := parse_crash spec :: !crashes;
      parse rest
    | "--disk-fault" :: spec :: rest ->
      crashes := parse_disk_fault spec :: !crashes;
      parse rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | Some _ | None ->
        Printf.eprintf "bad --jobs %S: expected a positive integer\n" n;
        exit 2)
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config =
    Planner.scaled_config ~sites:24 ~bps:6
      { Planner.default_config with Planner.seed = 11 }
  in
  match Planner.build config with
  | Error msg ->
    prerr_endline ("planning failed: " ^ msg);
    exit 1
  | Ok plan ->
    Printf.printf "offer pool: %s\n" (Wan.summary plan.Planner.wan);
    let biggest =
      match Wan.bps_by_size plan.Planner.wan with b :: _ -> b | [] -> 0
    in
    let n_bps = Array.length plan.Planner.wan.Wan.bps in
    let specs =
      [
        (* month 3: the largest BP goes bankrupt while two of its
           competitors' links are down at the same time. *)
        Fault.Bp_bankruptcy { at_epoch = 3; bp = biggest };
        Fault.Link_failure { at_epoch = 3; count = 2; duration = 2 };
        (* month 5: every surviving BP recalls its whole portfolio for
           one epoch — the auction is infeasible and the degradation
           ladder must keep the lights on. *)
      ]
      @ List.init n_bps (fun bp ->
            Fault.Capacity_recall
              { at_epoch = 5; bp; fraction = 1.0; duration = 1 })
      @ List.rev !crashes
    in
    let schedule =
      match Fault.compile plan.Planner.wan ~seed:2020 specs with
      | Ok s -> s
      | Error msg ->
        prerr_endline ("bad fault schedule: " ^ msg);
        exit 1
    in
    let market = { Epochs.default_config with Epochs.epochs = 8; seed = 7 } in
    let report =
      Poc_util.Pool.with_pool ~jobs:!jobs (fun pool ->
          match !resume with
          | Some path -> (
            match
              Supervisor.resume ~journal:path ?pool plan ~market ~schedule
            with
            | Ok r ->
              Printf.eprintf "resumed from %s\n" path;
              r
            | Error msg ->
              Printf.eprintf "resume failed: %s\n" msg;
              exit 1)
          | None -> (
            try
              Supervisor.run ?journal:!journal ?segment_bytes:!segment_bytes
                ?pool plan ~market ~schedule
            with Supervisor.Injected_crash { epoch; phase } ->
              Printf.eprintf
                "injected crash at epoch %d (%s); journal retained for \
                 --resume\n"
                epoch
                (Fault.phase_to_string phase);
              exit 10))
    in
    print_endline "\nservice under chaos:";
    print_string (Supervisor.render_epochs report);
    print_endline "\nincident log:";
    print_string (Supervisor.render_incidents report);
    Printf.printf "\nladder activations: %d\n" report.Supervisor.ladder_activations;
    (match report.Supervisor.violations with
    | [] -> print_endline "invariants: all hold (ledger, price, capacity)"
    | vs ->
      List.iter
        (fun (v : Supervisor.violation) ->
          Printf.printf "INVARIANT VIOLATED at epoch %d: %s (%s)\n"
            v.Supervisor.epoch v.Supervisor.invariant v.Supervisor.detail)
        vs);
    (match report.Supervisor.final_plan with
    | None -> print_endline "no epoch produced an outcome"
    | Some final ->
      let ledger = Settlement.of_plan final () in
      Printf.printf
        "\nclosing ledger: conservation $%.6f (must be 0), posted price \
         $%.2f/Gbps-month\n"
        (Settlement.conservation ledger)
        ledger.Settlement.usage_price)
