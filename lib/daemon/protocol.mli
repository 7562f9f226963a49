(** The daemon's control commands and the text of its replies.

    A request is written as one ASCII line, space-separated: [poc-cli
    ctl] parses it here and sends it as a {!Framing} frame, the only
    wire format.  One response per request: zero or more
    {e continuation} lines, each prefixed with ["| "], then exactly one
    {e terminal} line — any line {e not} starting with ["| "].  Each
    line travels in its own reply frame, the terminal one marked
    [final].

    Requests:

    - [BID <seq> <bp> <factor> [<priority>]] — live re-bid: multiply BP
      [bp]'s cost level by [factor] from the next epoch on.
    - [MATRIX <seq> <factor> [<priority>]] — live traffic update:
      multiply demand by [factor] from the next epoch on.
    - [EPOCH [<n>]] — run up to [n] (default 1) supervised epochs.
    - [STATUS] — one-line service summary.
    - [METRICS] — Prometheus text exposition as continuation lines.
    - [SCRUB] — dry-run journal scrub report (JSON).
    - [QUIESCE] — stop admitting updates, flush observability sinks.
    - [SHUTDOWN] — graceful stop: journal completed if the horizon is
      done, suspended (resumable) otherwise.

    [seq] is a client-chosen strictly-increasing sequence number — the
    daemon's exactly-once dedup key.  Terminal lines begin with [OK],
    [DUP], [BUSY], [ERR], [STATUS] or [BYE]. *)

type request =
  | Bid of { seq : int; bp : int; factor : float; priority : int }
  | Matrix of { seq : int; factor : float; priority : int }
  | Epoch of int
  | Status
  | Metrics_dump
  | Scrub
  | Quiesce
  | Shutdown

type command =
  | Scoped of { run : int; req : request }
      (** [request] addressed to one run; a bare request line is run 0,
          the daemon's root run. *)
  | Open_run of { run : int option; epochs : int option; seed : int option }
      (** [OPEN [<epochs> [<seed>]]] — open a fresh run; [RUN <id> OPEN
          …] opens it at a specific id, otherwise the registry picks
          the next free one.  [epochs]/[seed] default to the daemon's
          base market config. *)
  | Close_run of { run : int }  (** [CLOSE <id>] — finish and detach *)
  | List_runs  (** [RUNS] — one continuation line per run *)
      (** The multi-run command layer over {!request}: every request
          line may carry a [RUN <id>] prefix addressing one run of the
          registry.  [Scoped] requests with [Quiesce]/[Shutdown]/
          [Metrics_dump] remain daemon-wide regardless of the prefix. *)

val parse : string -> (request, string) result
(** Parse one request line (leading/trailing blanks and a trailing CR
    tolerated).  [priority] defaults to 0; [EPOCH]'s count to 1.
    [Error] names the offending token, never raises. *)

val parse_command : string -> (command, string) result
(** Parse one command line: a {!request} with an optional [RUN <id>]
    prefix, or one of the registry verbs [OPEN]/[CLOSE]/[RUNS].  A bare
    request parses as [Scoped { run = 0; _ }], keeping every pre-multi-
    run client valid. *)

val render_command : command -> string
(** Canonical command line; [parse_command (render_command c) = Ok c],
    with the run-0 scope rendered bare (so old daemons still parse
    it). *)

val render : request -> string
(** Canonical request line; [parse (render r) = Ok r]. *)

val is_terminal : string -> bool
(** Response framing predicate: a line not starting with ["| "]. *)

val continuation : string -> string
(** Prefix a payload line with ["| "].  The payload must not contain a
    newline (raises [Invalid_argument]). *)

val payload : string -> string
(** Strip a continuation line's ["| "] prefix (identity on terminal
    lines). *)
