(** Phase spans: time a pipeline stage and charge it to the registry.

    [wrap m "infer" f] runs [f] and records one observation —
    wall-clock nanoseconds and allocated words — against the span's full
    nesting path ("compile/infer" when entered under an open "compile"
    span) in the {!Metrics} registry [m]. Spans nest through a stack
    carried by the registry, so the path structure mirrors the dynamic
    call structure; the stat record is minted at entry, so the snapshot
    lists parents before children in a deterministic order.

    When [m] is {!Metrics.disabled}, [wrap] is a single [match] and a
    tail call — no clock read, no [Gc] read, no allocation beyond the
    closure the caller already built.

    Allocation accounting uses [Gc.minor_words]: the monotonically
    increasing count of words allocated in the minor heap, which (with
    OCaml's bump allocator) is the "how much did this phase allocate"
    quick stat — cheap enough to read at every span boundary, precise
    enough to rank phases. *)

(* Monotonic: a system-clock step mid-span must not produce a negative
   (or wildly inflated) phase duration. *)
let now_ns () : int = Tc_support.Mono.now_ns ()

(** Run [f] under a span named [name]. The observation is recorded even
    when [f] raises (the exception is re-raised), so a failing compile
    still reports where its time went. The same observation is also
    appended to the registry's flight recorder ({!Metrics.recorder}) as a
    per-request event, charged to the domain's current trace ID. *)
let wrap (m : Metrics.t) (name : string) (f : unit -> 'a) : 'a =
  if not (Metrics.is_on m) then f ()
  else begin
    let path = Metrics.span_push m name in
    let t0 = now_ns () in
    let w0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let ns = now_ns () - t0 in
        let words = int_of_float (Gc.minor_words () -. w0) in
        Metrics.span_record m path ~ns ~words;
        Rtrace.record (Metrics.recorder m) ~name:path ~ts_ns:t0 ~dur_ns:ns ~words;
        Metrics.span_pop m)
      f
  end
