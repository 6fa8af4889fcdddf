(** A supervised parallel worker pool behind the serve loop.

    [run] drives the same NDJSON request/response contract as
    {!Typeclasses.Serve.run}, but fans request handling out over OCaml 5
    domains. The coordinator (calling domain) is the only reader of
    [next], and a dedicated emitter thread is the only writer to [emit]
    — responses go out the moment they are next in sequence, even while
    the coordinator is blocked in [next], so a closed-loop client (one
    that awaits each response before sending the next request, the TCP
    front end's normal case) never deadlocks; each worker owns a private
    {!Typeclasses.Serve.t} — its own registry and evaluator state — so
    request handling needs no locking beyond the bounded work queue and
    one uncontended registry lock per request, and per-request isolation
    and budget enforcement are exactly the sequential server's.
    Responses are re-sequenced through a reorder buffer, so output order
    equals input order regardless of which worker finishes first.

    {2 Supervision}

    The request boundary inside a worker never raises — but if an
    exception {e does} escape the worker loop (an injected
    {!Tc_resilience.Inject.Worker_crash}, a runtime bug), the pool
    survives it: the in-flight request is answered with a synthetic
    [worker-crash] response at its own sequence number (every request
    gets exactly one response, in order — the coordinator never hangs on
    a dead worker), the dead incarnation's metrics registry stays in the
    pool's view, and a replacement domain is
    spawned after an exponential backoff (1 ms, doubling, capped at
    64x), up to [max_restarts] restarts over the
    pool's lifetime. Past the budget the pool shrinks; if the last
    worker dies over budget, it remains as a lame-duck drainer
    answering every remaining request with [worker-crash] so the
    coordinator always drains. Restarts are counted in the summary and
    as [scale/pool/restarts].

    {2 Overload}

    {!queue_depth} (raised to [workers] for a larger pool) bounds how far
    the coordinator reads ahead; the high-water mark is exported as the
    [scale/pool/queue_depth] gauge. Two shedding mechanisms bound tail
    latency under overload, both answering the [shed] failure class:
    requests whose queue age exceeds their deadline ([deadline_ms]
    request field, or [config.default_deadline_ms]) are rejected by the
    handling worker without compiling, and with [shed_grace_ms >= 0]
    the coordinator itself rejects new requests at admission once the
    queue has been full past the grace window ([scale/pool/shed]
    counts these).

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

    With a live [config.rtrace] recorder, the coordinator mints each
    request's trace ID at admission and threads it through the queue,
    the handling worker ({!Typeclasses.Serve.handle_line}'s ingress ID)
    and the reorder buffer — so a sampled request's timeline spans the
    [queue] wait event (measured on the monotonic clock from admission
    to dequeue), the worker's pipeline phase events, its
    [request/<op>] root event, and the [emit] write event recorded by
    the emitter thread. Synthetic responses (crash, shed) carry their
    trace ID too.

    Spontaneous metrics-snapshot lines ([config.snapshot_every] > 0)
    follow every N-th response, as in the sequential loop: the emitter
    thread reads the {!view} as it writes that response and sends the
    line after it, {e out-of-band} ([emit_oob], defaulting to [emit]) — it never
    consumes a sequence number, so a front end that pairs every [emit]
    with a routing slot stays consistent.

    Pooled-mode deviation from the sequential loop, by design: a live
    [config.base_opts.trace] sink is unsupported (sinks are not
    domain-safe).

    With [workers <= 1] this is exactly [Serve.run] (same loop, same
    snapshot behaviour) on a server whose registry is in the view. *)

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

(** Requests the coordinator reads ahead of the slowest worker: 64, or
    [workers] when the pool is larger, so an input firehose cannot
    buffer unboundedly. *)
val queue_depth : int

val view : Serve.config -> Tc_obs.Metrics.t * Serve.config
(** The view of a pool run under the returned config: the registry
    [config.extra_metrics] returns (fresh when [None]) with the process's
    joined in, and a config whose [extra_metrics] returns it. A caller
    joins its own registries into it before {!run} and may read it from
    any domain at any time — when a drain never completes, say. [view]
    of the returned config is the same registry. *)

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
(** [workers] defaults to 1 (sequential). [max_restarts] (default 8)
    bounds worker respawns per pool lifetime; the first respawn waits
    1 ms and each later one doubles that, up to 64x. [shed_grace_ms] (default -1:
    disabled) enables admission shedding once the queue has been full
    that long. [on_lame_duck] (default no-op) fires once, from the dying
    worker's domain, when the pool enters the lame-duck drain — the
    network front end flips its readiness probe off here. [stop] is
    checked between reads. [emit_oob] (default: [emit]) receives
    spontaneous out-of-band lines — metrics snapshots — which are never
    part of the request/response pairing. Blocks until input is
    exhausted, every response is emitted, and all worker domains have
    joined. *)
