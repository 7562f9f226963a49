(** Hierarchical tracing with pluggable sinks.

    A span is an interval of work ("epoch 4's auction") with a name,
    monotonic start/end timestamps, key/value attributes, and point
    events ("link 17 went down at t").  Spans nest per domain: a span
    opened while another is open on the same domain becomes its child,
    and the exporter preserves that hierarchy.  Span ids come from one
    atomic counter reset when a sink is installed: unique across
    domains, and deterministic per domain, so two traces of the same
    serial run are comparable.  The sink is called under a lock, so
    pool workers may trace concurrently.

    Tracing is disabled unless a sink is installed.  The disabled path
    is guaranteed allocation-free: {!span} returns the immediate
    {!null_span}, and {!finish}/{!add_attr}/{!event} return after one
    branch.  Instrumentation can therefore live permanently in hot
    loops; guard only the construction of attribute lists with
    {!enabled}.

    Three sinks ship with the module: disabled-by-default null
    behaviour (no sink), an in-memory {!Ring} buffer for tests and
    always-on flight recording, and a {!Chrome} trace-event JSON
    exporter whose files load in [chrome://tracing] and Perfetto. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_attrs : (string * value) list;
}

type record = {
  id : int;  (** deterministic: nth span opened since sink install *)
  parent : int;  (** 0 for roots *)
  depth : int;  (** 0 for roots *)
  name : string;
  start_us : float;
  end_us : float;
  attrs : (string * value) list;  (** in [add_attr] order *)
  events : event list;  (** in time order *)
}

type sink = {
  emit : record -> unit;  (** called once per span, as it finishes *)
  flush : unit -> unit;  (** called when the sink is uninstalled *)
}

val set_sink : sink option -> unit
(** Install or remove the sink.  Installing resets span ids and the
    clock origin; removing (or replacing) force-finishes any spans
    still open on the calling domain — a crash-interrupted trace keeps
    its partial epoch — and then calls the outgoing sink's [flush]. *)

val enabled : unit -> bool

val flush_sink : unit -> unit
(** Flush the installed sink {e in place} — without uninstalling it or
    closing open spans.  The supervisor calls this on fault and
    injected-crash paths so a SIGKILL'd or crashed run still leaves its
    trace on disk rather than relying on [at_exit] (which a SIGKILL
    never reaches).  A no-op when no sink is installed or the sink's
    [flush] does nothing (give {!Chrome.sink} a [?path] to make flushes
    persistent). *)

type span

val null_span : span
(** What {!span} returns while disabled; all operations on it are
    no-ops. *)

val span : string -> span
(** Open a span as a child of the calling domain's innermost open
    span. *)

val finish : span -> unit
(** Close the span (and, defensively, any child left open inside it).
    Closing {!null_span} or an already-closed span is a no-op. *)

val add_attr : span -> string -> value -> unit
(** Attach an attribute to a still-open span. *)

val event : ?attrs:(string * value) list -> string -> unit
(** Record a point event on the innermost open span.  Dropped when no
    span is open. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, finishing it even if
    [f] raises.  Convenience for non-hot call sites; hot paths use
    {!span}/{!finish} directly to avoid the closure. *)

val open_spans : unit -> int
(** Number of spans open on the calling domain (0 when disabled); for
    tests. *)

(** Bounded in-memory sink: keeps the most recent [capacity] finished
    spans, oldest first. *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 4096. *)

  val sink : t -> sink

  val records : t -> record list
  (** Retained spans, oldest first. *)

  val dropped : t -> int
  (** Spans evicted since creation. *)
end

(** Chrome trace-event JSON exporter ([chrome://tracing], Perfetto).
    Spans become complete ("X") events, span events become instant
    ("i") events, ordered by timestamp with parents before children. *)
module Chrome : sig
  type t

  val create : unit -> t

  val sink : ?path:string -> t -> sink
  (** With [path], the sink's [flush] rewrites the Chrome JSON at
      [path] — so {!flush_sink} on a crash path persists the trace
      collected so far, and the final [set_sink None] rewrites it one
      last time with the complete run. *)

  val to_json : t -> string

  val write : t -> string -> unit
  (** [write t path] writes {!to_json} to [path]. *)
end
