(** Per-request tracing: a sampled flight recorder.

    Where {!Metrics} aggregates (p99 rose), [Rtrace] attributes: a
    recorder is attached to a registry ({!Metrics.create}[ ~recorder]),
    and every {!Span.wrap} under that registry emits a timestamped event
    — phase name, start, duration, allocated words — tagged with the
    {e trace ID} minted for the request at ingress, so a single slow
    request can be read back as a timeline across queueing, compile
    phases, execution and emit.

    Events land in a bounded per-domain ring buffer (one ring per
    domain, registered on first use, overwriting oldest-first), so a
    long-running server keeps a fixed-size window of recent history —
    a flight recorder, dumped on demand as Chrome trace-event JSON
    (loadable in Perfetto / [chrome://tracing]).

    The disabled recorder ({!disabled}) costs nothing: every operation
    is a [match] on [None] and {b allocates zero words} — the same
    contract as a disabled {!Metrics} registry, unit-tested the same
    way. An enabled recorder samples: one request in [sample] gets its
    events recorded (IDs are still minted for every request, so
    responses stay taggable).

    Recording charges events to an ambient {e current} trace ID kept
    per domain ({!set_current}/{!clear_current}); a worker sets it
    before handling a request and clears it after, so [Span.wrap]
    sites deep in the pipeline need no explicit ID plumbing. An unsampled
    (or unset) current ID makes {!record} a no-op.

    {!dump} is called from a SIGUSR1 handler: it takes no lock (the
    ring list is read through an atomic snapshot; the mutex guards only
    ring registration), so a handler firing while a worker records
    cannot deadlock — it just reads a slightly stale window. *)

type t
(** A recorder handle, or the disabled recorder. Immutable; share
    freely across domains. *)

val disabled : t
(** Records nothing, allocates nothing. *)

val create : ?capacity:int -> ?sample:int -> unit -> t
(** A live recorder. [capacity] (default 4096, min 16) bounds each
    per-domain ring; [sample] (default 1, min 1) records one request in
    [sample] — sampled IDs are [1, 1+sample, 1+2*sample, ...]. *)

val is_on : t -> bool

val capacity : t -> int
(** Per-domain ring bound; [0] when disabled. *)

val sample_rate : t -> int
(** The sampling interval; [0] when disabled. *)

val mint : t -> int
(** A fresh trace ID (1, 2, 3, ... — atomic across domains); [0] when
    disabled. Mint exactly once per request, at ingress. *)

val sampled : t -> int -> bool
(** Whether this ID's events are recorded. [false] when disabled, for
    ID 0, and for IDs the sampling interval skips. *)

(** {2 Ambient current trace (per domain)} *)

val set_current : t -> int -> unit
(** Charge subsequent {!record} calls on this domain to [id] — a no-op
    unless [sampled t id]. *)

val clear_current : t -> unit
val current : t -> int

(** {2 Recording} *)

val record : t -> name:string -> ts_ns:int -> dur_ns:int -> words:int -> unit
(** Append one event charged to the domain's current trace ID; no-op
    when disabled or no sampled trace is current. [ts_ns] is the
    event's start on the {!Tc_support.Mono} clock. *)

val record_as :
  t -> trace:int -> name:string -> ts_ns:int -> dur_ns:int -> words:int -> unit
(** Like {!record} but charged to an explicit ID (for events recorded
    outside the request's ambient window: queue wait measured by the
    worker, emit measured by the replying thread). No-op unless
    [sampled t trace]. *)

(** {2 Dump: Chrome trace-event JSON} *)

val dump : t -> Json.t
(** Merge every domain's ring into
    [{"traceEvents": [...], "dropped": n}] — events sorted by
    timestamp, [ts]/[dur] in microseconds, [tid] the recording domain,
    [args] carrying the trace ID and allocated words. [dropped] counts
    events overwritten by ring wraparound. Lock-free; safe from a
    signal handler. *)

val dump_string : t -> string
(** {!dump} rendered compactly on one line (an empty [traceEvents]
    document when disabled). *)

(** {2 Offline digest: the slowest-N requests of a dump} *)

type digest = {
  dg_trace : int;
  dg_op : string;  (** from the request/<op> root event *)
  dg_latency_ns : int;  (** the root event's duration *)
  dg_phase : string;  (** dominant non-root phase, "" if none *)
  dg_phase_ns : int;
}

val top_slow : ?n:int -> Json.t -> (digest list, string) result
(** Read a {!dump} (or any Chrome trace-event document with our [args])
    back and rank complete requests by latency, slowest first, keeping
    [n] (default 10). Errors on documents without a [traceEvents]
    array. *)

val digest_json : digest list -> Json.t
