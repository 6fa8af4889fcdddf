(** [mhc serve] — a crash-proof, long-running request loop.

    The server answers each newline-delimited JSON request line with
    exactly one JSON response line ({!handle_line}); {!Tc_scale.Pool}
    drives it for every front end, in order. Every request is handled
    in complete isolation: a fresh compile (fresh diagnostic sinks,
    fresh evaluator state), its own
    {!Tc_resilience.Budget.t} (the per-request fields override the
    server default), and a containment boundary that classifies any
    escape — compile errors, runtime errors, resource exhaustion
    (including [Out_of_memory]), and ICEs — into a structured [error]
    field. The process never dies on a request; malformed JSON gets a
    [bad-request] response rather than killing the loop.

    Transient faults (the {!Tc_resilience.Inject.Serve_transient} class)
    are retried with exponential backoff before being reported.

    Telemetry: every request's latency is observed into a
    {!Tc_obs.Metrics} registry — a histogram per op
    ([serve/latency/<op>]), a histogram per failure class
    ([serve/failures/<class>]) and the [serve/requests] counter, all
    bumped together under the registry's lock after the response is
    built, so in any snapshot, read from any domain, the per-op latency
    counts sum exactly to the request counter. Transient retries count
    in [serve/retries]; each [run] adds its operation counters to
    [run/<counter>]. Requests compile with the same registry, so
    pipeline phase spans accumulate across requests.

    Every reading — the [metrics] op, the [stats] op, and the
    spontaneous [{"event": "metrics-snapshot", ...}] line emitted every
    N requests when [snapshot_every] > 0 — reads one view: a
    {!Tc_obs.Metrics.fold} of the server's registry, the process's
    ({!Pipeline.process_metrics}: prelude snapshots, interned names, the
    major heap) and the [extra_metrics] registry, each counted once. The
    [stats] op is derived from that view; the server keeps no other
    tally.

    Probes: the [health] op answers liveness (status + uptime) whenever
    the loop is handling requests at all; the [ready] op answers whether
    new work should be routed here ([ready:false] during drain or pool
    lame-duck — still [ok:true], because not being ready is a reported
    state, not a failure).

    Tracing: with a live [config.rtrace] recorder, each request is
    minted a trace ID at ingress (or inherits the one the pool minted),
    every response carries it as a [trace] field, and — for sampled
    requests — every pipeline phase span plus a [request/<op>] root
    event is appended to the flight recorder under that ID. The [trace]
    op dumps the recorder's current window as a Chrome trace-event
    document.

    Request schema (one JSON object per line):
    {v
      {"op": "ping" | "health" | "ready" | "check" | "compile" | "run"
           | "stats" | "metrics" | "trace",
       "id": <any>,            -- echoed back verbatim (optional)
       "src": "...",           -- program text (check/compile/run)
       "strategy": "dict" | "dict-flat" | "tags",
       "backend": "tree" | "vm",          -- run only
       "mode": "lazy" | "strict",         -- run only
       "opt": "none" | "simplify" | ... | "all",  -- run only
       "stable": true,                    -- metrics only: redact detail
       "deadline_ms": N,       -- shed if older than this when handled
       "fuel": N, "frames": N, "timeout_ms": N,
       "allocations": N, "output_bytes": N}  -- budget overrides
    v}

    Response schema: [{"id", "op", "ok", ...}] with
    [value]/[counters] on a successful run, [diagnostics] plus
    error/warning/ice tallies for check/compile, and
    [error: {"class", "message"}] on failure, where [class] is one of
    ["bad-request"], ["compile"], ["runtime"], ["resource"],
    ["transient"], ["ice"], ["shed"] (rejected unprocessed under
    overload: aged out in the worker-pool queue past its deadline, or
    refused at admission after the queue stayed full past the grace
    window) or ["worker-crash"] (a synthetic response posted by the
    pool supervisor for the request a dying worker held). *)

module Budget = Tc_resilience.Budget
module Json = Tc_obs.Json

(** What a [check]/[compile] response shows of an accumulating compile,
    as plain data: no closures, sinks or compiled program, so it can be
    cached, marshaled and compared as it is. *)
type check_answer = {
  diagnostics : Tc_support.Diagnostic.t list;  (** in issue order *)
  schemes : (string * string) list option;
      (** [None] iff no artifact was produced; otherwise the user
          bindings' [(name, rendered scheme)] pairs in binding order *)
}

val check_answer_of : Pipeline.checked -> check_answer

(** The seams where external layers plug into the request loop without a
    dependency cycle. All three default to [None] (plain pipeline
    calls). *)
type hooks = {
  compile :
    (opts:Pipeline.options ->
     passes:Tc_opt.Opt.pass list ->
     src:string ->
     Pipeline.compiled)
    option;
      (** replaces [Pipeline.compile] + [Pipeline.optimize] for the [run]
          op — where {!Tc_scale}'s compile cache plugs in. Must preserve
          per-request semantics: raise what [compile] would raise. *)
  check : (opts:Pipeline.options -> src:string -> check_answer) option;
      (** replaces [check_answer_of (Pipeline.compile_collect ...)] for
          the [check] and [compile] ops, which render their responses
          from the answer alone. Must never raise. *)
  specialise : (Pipeline.compiled -> Pipeline.compiled) option;
      (** post-processes every [run] artifact {e after} the compile seam,
          on hits too. Unused by [mhc serve], which puts its spec profile
          in [base_opts] so the compile cache stores the specialized
          artifact; kept for the traced stand-in in [perfbench/tracer]. *)
}

(** All three seams empty. *)
val no_hooks : hooks

type config = {
  default_budget : Budget.t;
      (** applied to every request unless overridden per request *)
  retries : int;       (** transient-fault retries per request *)
  backoff_ms : float;  (** initial retry backoff; doubles per retry *)
  sleep : float -> unit;
      (** backoff implementation, in seconds (injectable for tests) *)
  clock : unit -> float;
      (** time source, in seconds (injectable for deterministic latency
          and uptime in tests); the monotonic [Tc_support.Mono.now_s] by
          default, so latencies survive system-clock steps *)
  snapshot_every : int;
      (** send a spontaneous metrics-snapshot line after every N-th
          response ({!snapshot_event_line}); [0] (default) disables *)
  base_opts : Pipeline.options;
      (** compile options; the request's [strategy] field overrides the
          strategy, and the server's metrics registry overrides [metrics] *)
  max_line_bytes : int;
      (** request lines longer than this answer a [bad-request] (op
          ["oversized"]) without being parsed; [0] disables the cap *)
  default_deadline_ms : int;
      (** default request deadline: a request older than this (by the
          queue age the pool passes to {!handle_line}) is answered
          [shed] without compiling. Per-request [deadline_ms] overrides;
          [0] (default) disables shedding *)
  extra_metrics : (unit -> Tc_obs.Metrics.t) option;
      (** a view of scale-layer instruments (pool restarts, queue depth,
          persistent-cache counters) folded into every reading of the
          server: the [stats]/[metrics] ops and the snapshot lines. It is
          called per reading. Registries reachable from it count once, so
          it may hold this server's own registry: a pool's view
          ({!Tc_scale.Pool.view}) holds every worker's *)
  ready : unit -> bool;
      (** the [ready] op's verdict — whether new work should be routed
          to this server. The network front end wires this to "not
          draining and not lame-duck"; [fun () -> true] by default *)
  rtrace : Tc_obs.Rtrace.t;
      (** the per-request flight recorder; {!Tc_obs.Rtrace.disabled}
          (off, allocation-free) by default. {!create} attaches it to the
          server's registry, so every pipeline span a request runs feeds
          it; the pool reads it for queue and emit events. The same
          recorder must be
          shared by every worker of a pool so one dump merges all
          domains' rings *)
  hooks : hooks;  (** external seams; {!no_hooks} by default *)
}

(** Ten-second deadline, 3 retries from 10ms, [Unix.sleepf],
    [Tc_support.Mono.now_s], no periodic snapshots, 1 MiB line cap, no
    request deadline, no extra metrics, always ready, {!no_hooks}. *)
val default_config : config

type t

val create : ?config:config -> unit -> t

val metrics : t -> Tc_obs.Metrics.t
(** The server's (always live) registry: request latency histograms,
    the [serve/requests] counter, the [run/*] counters and pipeline
    phase spans. *)

val uptime_ms : t -> int
(** Milliseconds since [create], by the config clock. *)

(** {2 Reading the serve instruments}

    Every count the [stats] op, the pool summary and the [mhc serve]
    recap report is derived from the serve instruments of a registry —
    one server's {!metrics} or a pool's view. *)

val requests : Tc_obs.Metrics.t -> int
(** [serve/requests]: requests answered, synthetic failures included. *)

val failures : Tc_obs.Metrics.t -> (string * int) list
(** Failed requests per class, from the [serve/failures/<class>]
    histogram counts, sorted by class. *)

val failed : Tc_obs.Metrics.t -> int
(** The sum of {!failures}; [requests m - failed m] answered ok. *)

val retries : Tc_obs.Metrics.t -> int
(** [serve/retries]: transient retries performed. The counter is created
    on the first retry, so a retry-free registry does not list it. *)

val latency_total : Tc_obs.Metrics.t -> Tc_obs.Metrics.histogram
(** Every [serve/latency/<op>] histogram merged into one (exactly, so it
    equals observing every request into a single histogram). Its count
    equals {!requests} in any snapshot: the serve telemetry invariant. *)

(** Handle one request line, returning the response line (no trailing
    newline). Never raises. Lines longer than [config.max_line_bytes]
    answer a [bad-request] under op ["oversized"] without touching the
    JSON parser. [queued_us] (default 0) is how long the request waited
    before handling began — the worker pool passes its queue age — and
    drives deadline shedding: if it exceeds the request's [deadline_ms]
    (or [config.default_deadline_ms]), the response is a cheap [shed]
    failure with no compile work. [trace_id] is the ID minted for this
    request at an earlier ingress point (the pool, at admission); absent,
    one is minted here. *)
val handle_line : ?queued_us:int -> ?trace_id:int -> t -> string -> string

(** Classify an exception the way the request boundary would:
    [(class, message)]. This is the one exception table: the pool
    supervisor labels a crashed worker's escaped exception with it, and
    the [mhc] CLI and REPL report every failure through it too (the CLI
    maps the class to its exit code). [stage] (default ["serve"]) names
    the front door in an ICE's ["internal error in <stage>"] message. *)
val classify : ?stage:string -> exn -> string * string

(** [synthetic_failure t ~cls ~message line] manufactures the response
    for a request that never (fully) reached {!handle_line}: the pool
    supervisor answers for the request a dying worker held
    ([cls = "worker-crash"]) and its admission control refuses requests
    under sustained overload ([cls = "shed"]). [line] is parsed only
    for [id]/[op] echo (malformed lines answer under op ["invalid"]).
    Bookkeeping mirrors {!handle_line} — the requests/latency/failure
    instruments all bump, with latency 0 — so the per-op latency counts
    still sum exactly to [serve/requests] in any (merged) snapshot
    counting synthetic responses. [trace_id] as in
    {!handle_line}; sampled synthetic requests record a zero-duration
    root event. *)
val synthetic_failure :
  ?trace_id:int -> t -> cls:string -> message:string -> string -> string

val bounded_next : ?max_bytes:int -> in_channel -> unit -> string option
(** A [next] source reading newline-delimited lines from a channel with
    bounded buffering: bytes past [max_bytes] (default
    [default_config.max_line_bytes]; [0] = unlimited) are discarded as
    they stream in, retaining one extra byte so {!handle_line} still
    classifies the request as oversized. CRLF-terminated lines have the
    trailing ['\r'] stripped (except on truncated over-cap lines, where
    the retained byte is garbage, not a terminator). A final line
    without a newline is returned at end of input.

    The source reads the channel in blocks of up to 64 KiB and keeps
    the bytes past the line it returns for its next call, so it must be
    the only reader of its channel. *)

val scan_line : max_bytes:int -> Buffer.t -> bytes -> int -> int -> int
(** [scan_line ~max_bytes line chunk pos stop] appends the bytes of
    [chunk] from [pos] up to the first ['\n'] before [stop] to [line],
    under {!bounded_next}'s cap rule, and returns the index of that
    ['\n'], or [stop] if there is none. *)

val take_line : max_bytes:int -> Buffer.t -> string
(** The line accumulated in a buffer, with {!bounded_next}'s CRLF rule
    applied; clears the buffer. *)

val snapshot_event_line : after_requests:int -> Tc_obs.Metrics.t -> string
(** The spontaneous metrics-snapshot framing
    ([{"event":"metrics-snapshot", "after_requests":N, "metrics":...}])
    rendered to one line: the line {!Tc_scale.Pool} sends out-of-band
    after every [snapshot_every]-th response, [N] being the responses
    answered so far. *)
