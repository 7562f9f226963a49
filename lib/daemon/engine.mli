(** The daemon's single-writer core: a {!Poc_resilience.Supervisor}
    loop held open across requests, fronted by admission control and
    the durable intake log — everything [poc-cli serve] does for one
    run except the socket.

    The engine answers the verbs a run owns: [BID], [MATRIX], [EPOCH],
    [STATUS], [SCRUB] and [QUIESCE].  [serve] reaches it through
    [Registry.dispatch], which answers the daemon-wide verbs
    ([METRICS], [SHUTDOWN], [OPEN], [CLOSE], [RUNS]) itself, quiesces
    every run on [QUIESCE], and runs the observability flush; tests
    drive one run's request handling ({!handle}) in-process.  One
    engine owns one supervised run: requests arrive strictly
    sequentially (the server's event loop is the single writer), live
    updates wait in the {!Admission} queue until the next [EPOCH]
    request drains them and folds exactly those into the market, and
    every admission is durable in the {!Intake} log before the client
    sees [OK].

    Recovery is layered:

    - {e transient disk errors} retry with jittered exponential backoff
      ({!retrying_disk}), counted in [poc_daemon_disk_retries_total];
    - {e anything an epoch raises} (an injected crash, a disk that
      keeps failing) propagates out of {!handle}: the {!Registry}
      fails the run into its backoff, scrub, resume and quarantine
      cycle;
    - {e process death} (including SIGKILL) recovers on restart with
      [resume:true]: the journal checkpoint plus the intake log's
      re-queued updates reproduce the uninterrupted run byte for
      byte. *)

module Supervisor = Poc_resilience.Supervisor
module Disk = Poc_resilience.Disk
module Fault = Poc_resilience.Fault
module Black_box = Poc_resilience.Black_box

type t

val create :
  ?snapshot_every:int ->
  ?segment_bytes:int ->
  ?disk:Disk.t ->
  ?pool:Poc_util.Pool.t ->
  ?flight:Black_box.t ->
  ?high_water:int ->
  ?resume:bool ->
  ?honor_crashes:bool ->
  store:string ->
  intake:string ->
  Poc_core.Planner.plan ->
  market:Poc_market.Epochs.config ->
  schedule:Fault.schedule ->
  (t, Supervisor.refusal) result
(** Open the supervised loop ([resume:false], the default, starts a
    fresh journal store at [store]; [resume:true] replays it and the
    intake log, re-queues the logged updates the restored state has not
    applied (sheds excluded) and restores the dedup floor).  Same validation failures as [Supervisor.open_run] surface
    as [Invalid_argument]; resume problems as [Error].

    [honor_crashes] (default false) re-arms the schedule's not-yet-fired
    crash/storage specs on resume, exactly as
    [Supervisor.resume ~honor_crashes:true].  The registry's
    restart-with-backoff sets it so a retried run walks the remainder of
    its kill chain instead of silently disarming it.

    [flight] attaches a black-box recorder, threaded into the
    supervised loop exactly as [Supervisor.open_run ?flight] and
    additionally fed by the request path: every durable admission
    leaves an [admit] event, every applied update a
    [admit_to_settle_s] metric record (also observed into
    [poc_daemon_settle_seconds]), each flushed so a SIGKILL mid-epoch
    leaves the in-flight request story on disk.  [STATUS] reports
    [flight=on:<records>] / [flight=off] and the gauge
    [poc_daemon_flight_records] mirrors it. *)

val handle : t -> Protocol.request -> string list
(** Process one request; returns the response lines (continuations
    first, terminal last — see {!Protocol}).  Counts the request and
    observes its latency.  Raises whatever the run raises mid-[EPOCH];
    the loop is dead afterwards.  [METRICS] and [SHUTDOWN] are not a
    run's verbs: the registry answers them, and [handle] raises
    [Invalid_argument] on them. *)

val next_epoch : t -> int option
val queue_depth : t -> int

val checkpoint : t -> int
(** The epoch of the run's newest durable checkpoint
    ([Supervisor.checkpoint]): a resume restarts at the epoch after
    it. *)

val banner : t -> string
(** One-line startup description (store, horizon, queue bound, market
    config). *)

val close : t -> unit
(** Close the run through [Supervisor.close] (past the horizon the
    journal gets its completion record, before it the store stays
    resumable); the intake log is closed either way, even when closing
    the journal raises.  The registry calls it on [CLOSE], at shutdown,
    and (ignoring what it raises) on a run whose loop an exception
    already killed. *)

val retrying_disk : ?policy:Disk.retry_policy -> ?ops:Disk.ops -> unit -> Disk.t
(** A disk whose transient [Sys_error]s retry under [policy] (default
    {!Disk.default_retry_policy}), each retry counted in
    [poc_daemon_disk_retries_total]. *)
