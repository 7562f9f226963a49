(** The one producer of everything the epoch loop records.  A timed
    phase is a {!Trace} span, one observation of the phase's latency
    histogram and, when a flight ring is attached, an open/close pair
    in the {!Flight} recorder; a point event or an incident is a trace
    event and a flight record under the same name and detail.  The
    epoch loop ([Poc_resilience.Supervisor]) runs the epoch itself and
    every phase inside it through {!run}, and records each fault event,
    ladder/carry/blackout response, violation and injected crash
    through {!event} or {!incident}: the trace and the box cannot name
    one occurrence twice or differently. *)

type box = Flight.t * (unit -> unit)
(** A flight ring and the flush that makes its pending records
    durable. *)

val run :
  flight:box option ->
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
    the duration after it, unflushed; records carry [epoch] and phase
    [name].  [body] gets the open span for attributes.  When [body]
    raises, the span (and any span left open inside it) is finished
    before the exception goes on, and neither the histogram nor the
    ring sees a close. *)

val event :
  flight:box option -> epoch:int -> phase:string -> string -> string -> unit
(** [event ~flight ~epoch ~phase name detail]: a trace event [name] on
    the innermost open span, with one attribute [detail], and with a
    ring attached a flight [Event {name; detail}] stamped with [epoch]
    and [phase], left for the next flush. *)

val incident :
  flight:box option ->
  epoch:int ->
  phase:string ->
  Metrics.Counter.t ->
  string ->
  string ->
  unit
(** [incident ~flight ~epoch ~phase counter name detail]: as {!event},
    after counting one in [counter], with the flight record an
    [Incident {incident = name; detail}] flushed at once — the records
    forensics leads with are durable before the loop goes on. *)
