(** A content-addressed compile cache.

    Serving recompiles the same program over and over — editor
    keystroke loops, fleets of identical queries, retries. The whole
    front end (lex through lower) is a pure function of the source text
    and the subset of {!Typeclasses.Pipeline.options} that affect its
    output, so the compiled artifact can be memoized under a content
    hash of exactly those inputs. This is the *Tabled Typeclass
    Resolution* idea lifted from individual resolution queries to
    whole-program granularity: the table key is a digest of everything
    the answer depends on, and nothing else.

    {2 Key derivation}

    The key is an MD5 digest over a canonical rendering of:

    - a kind tag ([run:]/[check:]), because the two paths store
      different values for the same source: an optimized artifact, or a
      {!Typeclasses.Serve.check_answer};
    - the output-relevant option fields — strategy,
      [overloaded_literals], [defaulting], [include_prelude],
      and (for the accumulating check path only) [max_errors];
    - the optimizer pass list, in order, and the specializer options
      ({!Typeclasses.Pipeline.spec_signature}: profile digest, hotness
      threshold, clone/growth budgets) — run path only; the cache stores
      post-optimization artifacts, so two differently-specialized
      compiles of one source must key apart;
    - the source text itself.

    [trace] and [metrics] are deliberately {e excluded}: they change
    what is observed, never what is produced. Run artifacts are stored
    with both stripped and returned with the caller's sinks spliced back
    in, so a hit reports to the requesting server's registry and never
    retains another registry alive. A check answer is plain data —
    diagnostics and rendered schemes — and holds no sinks to strip.

    {2 Semantics}

    - Hits are byte-for-byte keyed: any change to source or options
      misses. Compile {e errors} are never cached — a raising compile
      propagates and leaves no entry, so error responses always reflect
      a fresh compile.
    - Bounded LRU: entries are evicted least-recently-used-first once
      the byte budget is exceeded. Each entry is charged its own part
      only — what evicting it can free: a run entry what its artifact
      holds itself ({!Typeclasses.Pipeline.own_words}), a check entry
      the words its answer reaches. The prelude snapshot a run artifact
      extends belongs to the process, which holds it for life and
      reports it as [prelude/snapshot_words]
      ({!Typeclasses.Pipeline.process_metrics}); no entry is charged for
      it. A run artifact read back from the disk tier holds a private
      copy of the snapshot, which its own part counts whole. The whole
      budget applies to the whole table, and eviction always takes the
      globally least recently used entry.
    - Verification mode: with [verify_every = n > 0], every [n]-th hit
      on an entry recompiles from source and compares the result with
      the cached value: a run artifact by a gensym-invariant
      {!fingerprint}, a check answer by equality (its diagnostics and
      rendered schemes, exactly what the response shows). A mismatch
      drops the entry, counts [scale/cache/verify_fail], and answers
      with the fresh compile.
    - Thread-safe: one mutex guards the table, the LRU order, the byte
      total and the telemetry registry. Compiles, sizing and disk IO run
      outside it, so a slow compile never stalls another worker's hit.
      One cache can be shared by every worker in a {!Pool}.

    {2 The persistent tier}

    With [create ~dir], the cache adds a crash-safe disk tier
    ({!Persist}) under the same content-addressed keys: a memory miss
    consults the directory before compiling (a warm restart serves its
    first repeated request with no compile span at all), and every fresh
    compile is written through — atomic temp+rename, version header,
    per-entry checksum — so a server restart starts warm. Corrupt or
    torn entries are dropped and healed on read, never an exception;
    entries from a different executable (marshaled layouts may differ)
    wipe the directory and start cold. A run artifact carries its own
    identifier scope, so it reads back the same whatever the reading
    process compiled before. Disk entries are exempt from the LRU byte
    budget (disk is cheap; the directory persists exactly so
    restarts are warm). Compile errors are never persisted, matching the
    memory tier.

    Telemetry lives in the cache's own always-live registry
    ({!metrics}): counters [scale/cache/hits], [misses], [inserts],
    [evictions], [verified], [verify_fail], and for the disk tier
    [scale/cache/persist/hits], [persist/misses], [persist/writes],
    [persist/corrupt] (torn/corrupt entries healed), [persist/errors],
    [persist/wiped], [persist/locked_out]; gauges [scale/cache/entries]
    and [scale/cache/bytes]. *)

module Pipeline = Typeclasses.Pipeline

type t

val create : ?max_bytes:int -> ?verify_every:int -> ?dir:string -> unit -> t
(** [max_bytes] bounds the estimated total size of cached artifacts
    (default 64 MiB). A budget of [0] keeps nothing in memory: no
    value is sized or inserted, so only the disk tier (with [dir])
    serves repeats. [verify_every = n > 0] recompiles
    every [n]-th hit per entry and asserts fingerprint equality
    (default [0] = off). [dir] enables the persistent tier rooted at
    that directory (created if needed; opened disabled when another
    process holds its writer lock). *)

val metrics : t -> Tc_obs.Metrics.t
(** The cache's own registry (see the counter/gauge list above), bumped
    under the cache's lock and readable from any domain; join it into a
    server's view with {!Tc_obs.Metrics.join}. *)

val metrics_view : t -> Tc_obs.Metrics.t
(** A point-in-time copy of {!metrics} ({!Tc_obs.Metrics.fold}). *)

val close : t -> unit
(** Release the persistent tier's writer lock (no-op without [dir]).
    The memory tier keeps working. *)

val key :
  [ `Run of Tc_opt.Opt.pass list | `Check ] ->
  opts:Pipeline.options ->
  src:string ->
  string
(** The content hash (hex MD5) a request stores under — exposed for
    tests and diagnostics. *)

val compile_run :
  t ->
  opts:Pipeline.options ->
  passes:Tc_opt.Opt.pass list ->
  src:string ->
  Pipeline.compiled
(** The [run]-path compile: cached equivalent of [Pipeline.compile]
    followed by [Pipeline.optimize passes]. Raises whatever [compile]
    raises on a miss over erroneous source; hits skip the front end
    entirely. Shape-compatible with the [Serve.hooks.compile] seam. *)

val check :
  t -> opts:Pipeline.options -> src:string -> Typeclasses.Serve.check_answer
(** The accumulating-path compile: cached equivalent of
    [Serve.check_answer_of (Pipeline.compile_collect ...)]. Never raises.
    Shape-compatible with the [Serve.hooks.check] seam. *)

val entries : t -> int
val bytes : t -> int
(** Current occupancy (also exported as gauges): bytes sum every
    entry's own part. *)

val fingerprint : Pipeline.compiled -> string
(** The gensym-invariant digest verification mode compares: sorted
    rendered user schemes, core group/bind counts, warning tally.
    Exposed for tests. *)
