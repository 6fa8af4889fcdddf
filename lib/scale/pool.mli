(** A supervised parallel worker pool behind every serve front end.

    The pool has one admission call, {!submit}: a request line and the
    [reply] closure its response goes to. The stdio loop ({!run}) and
    each TCP reader thread ([Tc_net.Net]) both submit; nothing else holds
    a waiting request.

    With one worker, [submit] handles the request on the calling thread,
    and concurrent submitters take turns in admission order (a ticket
    lock: a bare mutex is not fair, so one pipelining connection could
    starve the others). With more, each worker domain owns a private
    {!Typeclasses.Serve.t} — its own registry and evaluator state — so
    handling needs no locking beyond the bounded work queue and one
    uncontended registry lock per request; an emitter thread calls each
    [reply] in admission order through a reorder buffer, whichever
    worker finishes first and whether or not a submitter is blocked, so
    a closed-loop client (one that awaits each response before sending
    the next request) never deadlocks.

    {2 Supervision}

    The request boundary inside a worker never raises — but if an
    exception {e does} escape the worker loop (an injected
    {!Tc_resilience.Inject.Worker_crash}, a runtime bug), the pool
    survives it: the in-flight request is answered with a synthetic
    [worker-crash] response at its own place in the order (every request
    gets exactly one response — the pool never hangs on a dead worker),
    the dead incarnation's metrics registry stays in the pool's view,
    and a replacement domain is spawned after an exponential backoff
    (1 ms, doubling, capped at 64x), up to [max_restarts] restarts over
    the pool's lifetime. Past the budget the pool shrinks; if the last
    worker dies over budget, it remains as a lame-duck drainer answering
    every remaining request with [worker-crash] so the pool always
    drains. Restarts are counted in the summary and as
    [scale/pool/restarts].

    {2 Overload}

    With more than one worker the work queue holds at most 64 requests
    (or [workers]), and a [submit] that finds it full blocks, so a
    firehose client cannot buffer unboundedly; the high-water mark is
    the [scale/pool/queue_depth] gauge. Two shedding mechanisms bound
    tail latency, both answering the [shed] failure class: a request
    whose queue age exceeds its deadline ([deadline_ms] request field,
    or [config.default_deadline_ms]) is rejected by the handling worker
    without compiling, and with [shed_grace_ms >= 0] [submit] rejects a
    request once the queue has been full past the grace window
    ([scale/pool/shed]). With one worker nothing is queued, so nothing
    sheds.

    {2 The view}

    The in-band [stats] and [metrics] ops on any worker, every
    out-of-band snapshot line and the summary read one registry,
    {!view}, whose members ({!Tc_obs.Metrics.join}) are every worker
    incarnation's registry, dead ones included, the admission-control
    server's, the pool's, the process's and the caller's (the CLI's
    compile cache and listener). Workers account each request under
    their registry's lock, so the serve telemetry invariant — the per-op
    [serve/latency] counts summing exactly to [serve/requests] — holds
    in every reading, live or final, synthetic responses included.

    {2 Tracing and out-of-band lines}

    With a live [config.rtrace] recorder, [submit] mints each request's
    trace ID at admission, under the pool's lock, so a sampled request's
    timeline spans a [queue] event (admission to the start of handling:
    the wait in the queue, or for the one worker's turn), the handler's
    phase events and [request/<op>] root event, and an [emit] event
    around its [reply]. Synthetic responses (crash, shed) carry their
    trace ID too.

    Spontaneous metrics-snapshot lines ([config.snapshot_every] > 0)
    follow every N-th response: the view is read as that response is
    answered, and the line goes to [emit_oob], never to a [reply]. A
    live [config.base_opts.trace] sink is unsupported with more than one
    worker (sinks are not domain-safe). *)

module Serve = Typeclasses.Serve

type summary = {
  metrics : Tc_obs.Metrics.t;
      (** the pool's {!view}; with more than one worker it holds the
          pool's instruments [scale/pool/restarts],
          [scale/pool/queue_depth], [scale/pool/queue_depth_now] and
          [scale/pool/shed]. Read the request tallies with
          {!Typeclasses.Serve.requests} and its siblings. *)
  workers : int;  (** domains initially spawned to handle requests *)
  restarts : int; (** worker domains respawned after a crash *)
}

val view : Serve.config -> Tc_obs.Metrics.t * Serve.config
(** The view of a pool run under the returned config: the registry
    [config.extra_metrics] returns (fresh when [None]) with the process's
    joined in, and a config whose [extra_metrics] returns it. A caller
    joins its own registries into it before {!start} and may read it
    from any domain at any time — when a drain never completes, say.
    [view] of the returned config is the same registry. *)

type t
(** A running pool. *)

val start :
  ?workers:int ->
  ?config:Serve.config ->
  ?max_restarts:int ->
  ?shed_grace_ms:float ->
  ?on_lame_duck:(unit -> unit) ->
  emit_oob:(string -> unit) ->
  unit ->
  t
(** Start a pool. [workers] defaults to 1. [max_restarts] (default 8)
    bounds worker respawns per pool lifetime; the first respawn waits
    1 ms and each later one doubles that, up to 64x. [shed_grace_ms]
    (default -1: disabled) enables admission shedding once the queue
    has been full that long. [on_lame_duck] (default no-op) fires once,
    from the dying worker's domain, when the pool enters the lame-duck
    drain — the network front end flips its readiness probe off here.
    [emit_oob] receives the spontaneous out-of-band lines (metrics
    snapshots), one at a time, never concurrently with a [reply]. *)

val submit : t -> string -> reply:(string -> unit) -> unit
(** Admit one request line; its response goes to [reply]. Replies are
    made one at a time, in admission order, exactly one per request.
    With one worker, [reply] is called before [submit] returns; with
    more, [submit] returns once the request is queued or shed. Safe to
    call from several threads, never after {!close}. *)

val close : t -> summary
(** Close admission and wait until every admitted request is answered
    and every worker domain has joined. The caller must ensure no
    [submit] is still running. *)

val run :
  ?workers:int ->
  ?config:Serve.config ->
  ?max_restarts:int ->
  ?shed_grace_ms:float ->
  ?on_lame_duck:(unit -> unit) ->
  ?stop:(unit -> bool) ->
  ?emit_oob:(string -> unit) ->
  next:(unit -> string option) ->
  emit:(string -> unit) ->
  unit ->
  summary
(** {!start} a pool, {!submit} every line [next] returns with [emit] as
    its reply, and {!close} the pool when [next] returns [None] or
    [stop] (checked between reads) returns [true]. [emit_oob] defaults
    to [emit]. The stdio serve loop and [mhc bench serve]'s in-process
    driver. *)
