(** The daemon's transport: a single-threaded [select] loop serving the
    {!Registry} over a Unix-domain socket, with an optional
    Prometheus-text HTTP endpoint on loopback.

    One event loop is the single writer into every run's engine —
    requests from any number of connected clients are serialized in
    arrival order, so the deterministic-epoch guarantees need no
    locking.  Each select round also {!Registry.tick}s the registry,
    driving failing runs' restart-with-backoff retries.

    The socket speaks one wire format, {!Framing}: one checksummed
    frame per request, and one reply frame per response line, the last
    one [final].  A connection whose first byte is not
    {!Framing.magic} (a line-protocol client's) is closed, so such a
    client sees EOF rather than silence.  After that first byte,
    corrupt frames and garbage between frames are dropped with
    resync — never a dropped connection.

    Lifecycle: the loop runs until a client [SHUTDOWN] (exit 0), a
    SIGTERM or SIGINT (exit 0, through the same {!Registry.stop}: every
    run's journal completed or suspended resumably, observability
    sinks flushed), or an injected crash escaping the registry's
    per-run isolation (exit 10 — a last resort; whatever a run raises
    is absorbed as a [Failing]/[Quarantined] transition).  SIGKILL, by
    design, gets no handler: the multi-run smoke proves every
    non-quarantined run recovers anyway.

    Slow-loris hygiene: a connection holding a partial frame longer
    than [idle_timeout] is answered [ERR timeout] and closed.  Idle
    connections with no buffered bytes are left alone (monitoring
    clients poll [STATUS] at leisure). *)

type config = {
  socket_path : string;
  metrics_port : int option;  (** loopback HTTP [GET /metrics] *)
  idle_timeout : float;       (** partial-request timeout, seconds *)
}

val serve : config -> Registry.t -> int
(** Run until shutdown; returns the process exit code.  The loop itself
    flushes no observability sink: a [SHUTDOWN] or a signal runs
    {!Registry.stop}, which runs the registry's flush hook
    ({!Registry.set_flush}) once, and the process's exit writes the
    final files. *)
