(** One producer for a timed phase of a market epoch: a {!Trace} span,
    one observation of the phase's latency histogram and, when a flight
    ring is attached, an open/close pair in the {!Flight} recorder.
    The epoch loop ([Poc_resilience.Supervisor]) runs every phase of an
    epoch through {!run}; the epoch span itself it times by hand,
    because a post-settle crash's flight record must follow the
    epoch's flushed close. *)

val run :
  flight:(Flight.t * (unit -> unit)) option ->
  epoch:int ->
  Metrics.Histogram.t ->
  string ->
  (Trace.span -> 'a) ->
  'a
(** [run ~flight ~epoch hist name body] runs [body] inside a span named
    [name] and observes its wall clock, in seconds, in [hist].  With
    [flight = Some (ring, flush)] it emits a [Span_open] into [ring] and
    calls [flush] before [body] — so a process killed inside [body]
    leaves a durable record naming the phase — and a [Span_close] with
    the duration after it; records carry [epoch] and phase [name].
    [body] gets the open span for attributes.  When [body] raises, the
    span (and any span left open inside it) is finished before the
    exception goes on. *)
