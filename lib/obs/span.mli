(** Phase spans: time a pipeline stage and charge wall-clock nanoseconds
    plus allocated words ([Gc.minor_words]) to a {!Metrics} registry,
    under the span's full nesting path (e.g. ["compile/infer"]). A
    disabled registry makes {!wrap_rt} a single [match] and a tail call. *)

val wrap_rt : Rtrace.t -> Metrics.t -> string -> (unit -> 'a) -> 'a
(** [wrap_rt rt m name f] runs [f] under a span named [name]; the
    observation is recorded even when [f] raises (the exception is
    re-raised). A live [rt] additionally appends the observation to the
    flight recorder, charged to the domain's current trace ID; recorder
    events require a live [m] (they share its span-path bookkeeping and
    timing reads). [rt] is a plain argument — not [?rt] — so hot call
    sites pass {!Rtrace.disabled} without boxing a [Some] per span. *)
