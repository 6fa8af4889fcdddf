(** [mhc bench serve] — a load generator for the serve loop.

    Drives the NDJSON request/response contract in-process through
    {!Pool.run} (so the numbers include admission, queueing and
    re-sequencing, not just raw compiles) in two phases over the same
    compile cache:

    - {b cold}: every request carries a distinct generated program —
      all cache misses; the front end runs for each.
    - {b hot}: requests cycle over [clients] distinct programs — after
      one warm-up miss apiece, every request is a cache hit and skips
      the front end.

    The report carries throughput (requests/s) and p50/p99 latency per
    phase, the hot/cold speedup, cache hit/miss totals, and whether the
    telemetry invariant — per-op latency counts summing exactly to
    [serve/requests] — held in the merged multi-worker registry. Each
    latency is exact: from the moment the driver hands the line to the
    pool to the moment its response comes back. Quantiles are nearest
    rank (the smallest sample with at least p% of the samples at or
    below it) in both modes, as in [perfbench/run.py].

    {!run_socket} runs the same experiment end-to-end against a running
    [mhc serve --listen] server: client threads each own one TCP
    connection and run a closed loop, so the numbers additionally
    include socket transit and the reader threads, and latencies are
    client-side wall time. The invariant and the
    cache/pool tallies come from an in-band [metrics] snapshot probe. *)

type phase = {
  ph_label : string;    (** ["cold"] or ["hot"] *)
  ph_requests : int;
  ph_elapsed_s : float;
  ph_rps : float;
  ph_p50_us : int;
  ph_p99_us : int;
  ph_ok : int;
  ph_failed : int;
}

type report = {
  clients : int;
  requests : int;
  workers : int;     (** [0] in socket mode: the server's knob, not ours *)
  op : string;           (** ["run"] or ["check"] *)
  mode : string;         (** ["inproc"] or ["socket"] *)
  cold : phase;
  hot : phase;
  speedup : float;       (** hot rps / cold rps *)
  invariant_ok : bool;   (** latency counts sum to [serve/requests] *)
  cache_hits : int;
  cache_misses : int;
  shed : int;            (** [shed]-class responses across both phases *)
  worker_crashes : int;  (** [worker-crash]-class responses, both phases *)
  restarts : int;        (** worker domains respawned, both phases *)
}

val invariant_holds : Tc_obs.Metrics.t -> bool
(** [sum over serve/latency histograms of count = serve/requests]
    in the given registry — the telemetry invariant, checkable on any
    (including merged) registry. *)

val quantile_us : int array -> int -> int
(** [quantile_us lat pct]: the nearest-rank [pct]th percentile of the
    non-negative entries of [lat] (negative slots were never recorded),
    i.e. the smallest sample with at least [pct]% of the samples at or
    below it; [0] when there are none. The definition of
    [perfbench/run.py]'s [percentile]. *)

val run :
  ?clients:int ->
  ?requests:int ->
  ?workers:int ->
  ?op:[ `Run | `Check ] ->
  ?cache_mb:int ->
  ?verify_every:int ->
  ?deadline_ms:int ->
  unit ->
  report
(** Defaults: 4 clients, 64 requests per phase, 1 worker, [`Run],
    64 MiB cache ([cache_mb = 0] caches nothing), no verification, no
    deadline ([deadline_ms = 0]; a positive value sheds requests older
    than that when dequeued, and the report's [shed] count lets the
    bench gate bound the shed rate under overload). Latencies are timed
    on the monotonic [Tc_support.Mono.now_s]. *)

val run_socket :
  ?clients:int ->
  ?requests:int ->
  ?op:[ `Run | `Check ] ->
  host:string ->
  port:int ->
  unit ->
  report
(** The socket-mode experiment against an already-running
    [mhc serve --listen host:port]. Same defaults as {!run} where
    shared. Failed connections count their requests as failures rather
    than raising. *)

val report_json : report -> Tc_obs.Json.t
(** The full report as one JSON object (the CI artifact). *)

val write_bench_rows : dir:string -> report -> string
(** Write the [BENCH_SERVE.json] trajectory rows (experiment ["serve"],
    the same record shape the bechamel benchmarks emit) under [dir];
    returns the path written. Read-merge-write keyed by
    [(backend, metric)] — in-process rows (backend ["workers=N"]) and
    socket rows (backend ["socket"], same metric names) share the file
    without clobbering each other, and one per-metric SLO bound covers
    both transports. *)
