(** Crash forensics: one ordered incident timeline per store.

    After a crash — injected, SIGKILL, or power cut — the evidence is
    scattered over four artifacts: the flight recorder's [FLIGHT] box
    (the last moments, including the in-flight epoch and phase), the
    journal's durable epoch records, the scrubber's verdict on the
    damage, and the daemon's intake log (which admissions were durable
    when the process died).  This module reads all four {e without
    modifying anything} (the journal scrub runs dry; the flight image
    and intake log are parsed read-only, torn tails tolerated) and
    merges them into a single timeline ordered by epoch — within an
    epoch: intake admissions, then flight records in emission order,
    then the journal's durable record as the last word.  The store is
    a journal directory, and its box, when one was attached, is
    [STORE/FLIGHT].

    The headline answer is {!field:analysis.a_in_flight}: the epoch and
    phase the process was inside when it died, derived from the newest
    flight record past the newest durable journal epoch (a crash
    incident record wins when present).  Only the newest attempt's
    records count: a box reopened by a resume still holds the earlier
    attempts' records, crash incidents included, before the newest
    resume marker ({!Poc_resilience.Black_box.mark_resume}).  [poc-cli forensics] renders
    {!render} (human table) or {!to_json} (one JSON document). *)

module Flight = Poc_obs.Flight
module Disk = Poc_resilience.Disk
module Journal = Poc_resilience.Journal
module Intake = Poc_daemon.Intake

type source = Src_flight | Src_journal | Src_intake

val source_to_string : source -> string
(** ["flight"], ["journal"], ["intake"]. *)

type entry = {
  e_epoch : int;      (** market epoch; [-1] outside any epoch *)
  e_source : source;
  e_phase : string;   (** supervisor phase / daemon verb; [""] when none *)
  e_label : string;   (** ["span_open"], ["incident"], ["epoch"], ["admit"], … *)
  e_detail : string;
  e_ts_us : float;    (** flight emission clock; [nan] for other sources *)
}

type analysis = {
  a_store : string;
  a_flight_path : string option;  (** resolved box path, when one exists *)
  a_flight : (Flight.image_data, string) result option;
  a_journal : (Journal.replayed, string) result;
  a_scrub : (Journal.scrub_report, string) result;  (** always dry-run *)
  a_intake_path : string option;
  a_intake : (Intake.record list * bool, string) result option;
      (** records + torn-tail flag, when an intake log exists *)
  a_durable_epoch : int;  (** newest epoch with a durable journal record *)
  a_in_flight : (int * string) option;
      (** epoch and phase in flight at death; [None] when the journal
          is durable through everything the recorder saw *)
  a_entries : entry list;  (** the merged, ordered timeline *)
}

val analyze :
  ?disk:Disk.t ->
  ?flight:string ->
  ?intake:string ->
  string ->
  (analysis, string) result
(** Read every artifact the store offers.  [flight] and [intake]
    override auto-detection ({!Poc_resilience.Black_box.file_in}, and
    [dirname(store)/intake.log] — the daemon's layout).  Missing
    artifacts are recorded as absent, and a broken one as its error;
    [Error] only when {e none} of the four sources exists at all. *)

val render : analysis -> string
(** Human forensics report: source inventory, the in-flight verdict,
    the scrub verdict, and the timeline table. *)

val to_json : analysis -> string
(** The same analysis as one JSON document (trailing newline):
    [{"store","sources":{..},"durable_epoch","in_flight","scrub",
    "timeline":[{"epoch","source","phase","what","detail"}]}]. *)
