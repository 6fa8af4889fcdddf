(** [mhc serve --listen] — the TCP front end.

    A listener multiplexing many concurrent client connections onto one
    supervised {!Tc_scale.Pool}: each connection speaks the same NDJSON
    request/response protocol as stdio serve (same ops, same failure
    classes, same {!Typeclasses.Serve.bounded_next} line-cap semantics,
    CRLF tolerated), and every request is answered on the connection
    that sent it, in that connection's send order.

    {2 Connection lifecycle}

    A connection moves through [accepted -> reading -> draining-out ->
    closed]. One reader thread per connection scans its bytes into
    request lines (bounded buffering: bytes past the line cap are
    discarded as they stream, retaining one byte so the request still
    answers [bad-request]/oversized) and submits each line to the pool
    ({!Tc_scale.Pool.submit}) with a [reply] closure that writes to this
    connection. The response therefore carries its own destination: no
    response can be delivered to the wrong connection, and the listener
    holds no request queue. With one worker the reader thread handles
    the request itself, taking turns with the other connections' readers
    in arrival order; with more, the pool queues it (a full queue blocks
    the reader, so a firehose client's socket fills and the client
    blocks) and the pool's emitter thread replies. A connection's socket
    is never closed while lines are still owed to it: teardown shuts the
    file descriptor down and defers [close] until the owed count reaches
    zero, so a freshly-accepted connection can never reuse the
    descriptor early.

    {2 Robustness}

    - {b Admission}: past [max_conns] concurrent connections, a new
      arrival is answered with a single [{"class":"overloaded"}] line
      and closed ([net/rejected]).
    - {b Deadlines}: a connection mid-line longer than
      [read_timeout_ms] (a slowloris trickling bytes), or quiet between
      requests longer than [idle_timeout_ms], is reaped ([net/reaped])
      without affecting its neighbors. Only the client's time counts:
      neither clock runs while a response is owed to the connection,
      and both restart when a line is written to it, so the time a
      request spends waiting or being handled is never the client's.
    - {b Fault isolation}: a client that vanishes (EPIPE on write,
      ECONNRESET on read) loses only its own in-flight responses
      ([net/write_drops]); the pool's one-response-per-request
      accounting and every other connection are untouched.
    - {b Graceful drain}: {!drain} (async-signal-safe — the CLI calls
      it from SIGTERM/SIGINT handlers) stops accepting, closes the
      listener, stops reading from every connection, and lets the pool
      finish the requests already read. If the drain outlives
      [drain_timeout_ms], [on_drain_deadline] fires (the CLI emits its
      final stats snapshot and exits 0 there). The [ready] probe flips
      false the moment drain begins, and also when the pool enters
      lame-duck ({!Tc_scale.Pool}'s restart budget spent).

    {2 Telemetry}

    The listener's registry is a member of the pool's one view
    ({!Tc_scale.Pool.view}), which every reading of the server folds:
    counters [net/accepted],
    [net/rejected], [net/reaped], [net/dropped] (injected connection
    drops), [net/accept_fails], [net/write_drops], [net/oob_broadcasts]
    (spontaneous snapshot lines fanned out); gauges [net/conns]
    (current) and [net/conns_peak] (high-water); histogram
    [net/conn_lifetime_ms]. None of it is [serve/*], so the serve
    invariant — per-op latency counts summing exactly to
    [serve/requests] — keeps holding in every snapshot of the view.

    {2 Out-of-band lines}

    Spontaneous metrics snapshots ([config.snapshot_every] > 0) work
    over TCP: the pool hands them to the listener out-of-band, never to
    a request's [reply], and the listener {e broadcasts} each one to
    every live connection. Broadcast writes follow the same
    bounded-write/owing discipline as responses: a slow or vanished
    client only loses its own lines. In-band [trace] requests dump the
    shared flight recorder (see {!Tc_obs.Rtrace}) like any other op.

    Fault injection: {!Tc_resilience.Inject.Accept_fail} (accept loop
    counts and continues), [Conn_drop] (abrupt connection teardown
    mid-read), [Slow_read] (simulated stall, reaped through the
    deadline path). *)

module Serve = Typeclasses.Serve
module Pool = Tc_scale.Pool

(** Raised by {!create} when the address cannot be bound (port already
    in use, unresolvable host). The message is the CLI diagnostic. *)
exception Bind_error of string

type t

val create :
  ?max_conns:int ->
  ?read_timeout_ms:int ->
  ?idle_timeout_ms:int ->
  ?drain_timeout_ms:int ->
  ?on_drain_deadline:(unit -> unit) ->
  host:string ->
  port:int ->
  unit ->
  t
(** Bind and listen (raising {!Bind_error} on failure — [port = 0]
    binds an ephemeral port, see {!port}), with a listen backlog of 64.
    Defaults: [max_conns] 256, [read_timeout_ms] 10000, [idle_timeout_ms] 60000
    ([0] disables either deadline), [drain_timeout_ms] 5000,
    [on_drain_deadline] no-op. Also ignores SIGPIPE process-wide: a
    vanished client must surface as an EPIPE error on its own
    connection, never kill the server. *)

val port : t -> int
(** The bound port — the kernel's choice when [create] was given
    [port = 0]. *)

val drain : t -> unit
(** Request a graceful drain. Async-signal-safe (sets a flag the accept
    loop polls within ~100ms; no locks). Idempotent. *)

val draining : t -> bool

val run :
  t ->
  ?workers:int ->
  ?max_restarts:int ->
  ?shed_grace_ms:float ->
  ?config:Serve.config ->
  unit ->
  Pool.summary
(** Serve until drained: start a pool with the given knobs (the
    defaults of {!Tc_scale.Pool.start}), accept connections on the
    calling thread, submit their requests, and block until the drain
    completes — every request read before the
    drain has its response written (or counted [net/write_drops]) and
    all connections are closed. The given [config]'s [ready] is composed
    with (not replaced by) the listener's own: readiness additionally
    requires "not draining, not lame-duck". The listener registry joins
    {!Tc_scale.Pool.view}[ config], so the summary's registry includes
    the [net/*] instruments. *)
