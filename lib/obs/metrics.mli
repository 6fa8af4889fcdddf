(** A metrics registry: counters, gauges and log-bucketed histograms with
    deterministic JSON snapshots.

    The quantitative half of the observability layer. A {!t} is either a
    live registry or {!disabled} (the default everywhere); instruments are
    looked up by name once and then bumped through their handle, and every
    bump on either path is a plain mutation — no allocation, no hashtable
    traffic. A registry has one writer at a time and readers on any
    domain: its mutex is taken to register a name, while a reader folds
    it, and by {!atomically} — never by a bump through a handle.

    {!snapshot} renders the whole registry as one deterministic
    {!Json.t}: instruments ordered by name, spans by first-entered order,
    no timestamps; [~stable:true] further redacts machine-dependent
    quantities (durations, allocation totals, histogram value detail) so
    golden tests can compare snapshots byte-for-byte. *)

type t

val disabled : t
(** The no-op registry: handles are shared dummies, bumps mutate dead
    state, {!snapshot} is empty. *)

val create : ?recorder:Rtrace.t -> unit -> t
(** A live registry. [recorder] (default {!Rtrace.disabled}) is the
    flight recorder that every {!Span.wrap} under this registry also
    feeds, so recorder events exist only where a live registry does. *)

val is_on : t -> bool

val recorder : t -> Rtrace.t
(** The registry's flight recorder; {!Rtrace.disabled} for a disabled
    registry. *)

(** {1 Counters} — monotonically increasing event counts. *)

type counter

val counter : t -> string -> counter
(** Find or register the counter [name] (a shared dummy when disabled). *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-write-wins instantaneous values. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val probe : t -> string -> (unit -> int) -> unit
(** [probe t name read]: the gauge [name], computed by [read] whenever
    [t] is read (under [t]'s lock, so [read] must not touch a registry). *)

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] runs [f] under [t]'s lock, so a reader sees all of
    the bumps [f] makes or none. Look handles up before: [f] must not
    register names in [t] nor read it. *)

(** {1 Histograms} — log-bucketed distributions.

    Bucket 0 holds [v <= 0]; bucket [i >= 1] holds [2^(i-1) <= v < 2^i];
    the last bucket is clamped at [max_int]. *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit
val hist_count : histogram -> int

val hist_sum : histogram -> int
(** Saturating: never wraps past [max_int]. *)

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [0,1]: the inclusive upper bound of the
    bucket holding the [ceil (q * count)]-th smallest observation (an
    overestimate by at most 2x); [0] when empty. *)

val merge_hist : into:histogram -> histogram -> unit
(** Elementwise addition; counts, sums and extrema combine so the merge
    equals observing both streams into one histogram. *)

val fold : t list -> t
(** One fresh registry holding every instrument of the given registries
    and of their members ({!join}), each registry read under its lock
    and counted once: counters add, gauges take the maximum, histograms
    {!merge_hist}, and span stats accumulate counts/durations/allocations
    (span paths keep their first-entered order). {!disabled} registries
    add nothing. *)

val join : t -> t -> unit
(** [join view r] makes [r] a member of [view]: every later read of
    [view] folds [r] in, and [r]'s members. Handles looked up in [view]
    name its own instruments only. *)

val bucket_of : int -> int
(** The bucket index a value bins into (total over all of [int]). *)

val bucket_hi : int -> int
(** Inclusive upper bound of a bucket: [bucket_of v] is the smallest [i]
    with [v <= bucket_hi i] (for [v >= 0]). *)

(** {1 Spans} — aggregated phase statistics, recorded via {!Span}. *)

type span_stat = {
  sp_name : string;  (** full nesting path, e.g. ["compile/infer"] *)
  sp_seq : int;      (** first-entered order *)
  mutable sp_count : int;
  mutable sp_ns : int;     (** total wall-clock nanoseconds *)
  mutable sp_words : int;  (** total allocated words *)
}

val span_push : t -> string -> string
(** Enter a span: returns its full path given the active nesting ([""]
    when disabled) and mints its stat record on first entry. *)

val span_pop : t -> unit

val span_record : t -> string -> ns:int -> words:int -> unit

(** {1 Reading and snapshots} — of a {!fold}, members and probes in. *)

val counters : t -> (string * int) list  (** sorted by name *)

val gauges : t -> (string * int) list  (** sorted by name *)

val histograms : t -> (string * histogram) list  (** sorted by name *)

val spans : t -> span_stat list  (** in first-entered order *)

val snapshot : ?stable:bool -> t -> Json.t
(** The whole registry as one deterministic JSON object with fields
    [counters], [gauges], [histograms], [spans]. [~stable:true] keeps
    only counts (redacting durations, sums, extrema, quantiles and
    buckets), for golden output. *)
