(** Phase spans: time a pipeline stage and charge wall-clock nanoseconds
    plus allocated words ([Gc.minor_words]) to a {!Metrics} registry,
    under the span's full nesting path (e.g. ["compile/infer"]). A
    disabled registry makes {!wrap} a single [match] and a tail call. *)

val wrap : Metrics.t -> string -> (unit -> 'a) -> 'a
(** [wrap m name f] runs [f] under a span named [name]; the observation
    is recorded even when [f] raises (the exception is re-raised). It is
    also appended to the registry's flight recorder
    ({!Metrics.recorder}, attached by {!Metrics.create}), charged to the
    domain's current trace ID; a disabled registry has no recorder, so
    recorder events always come with a live registry. *)
