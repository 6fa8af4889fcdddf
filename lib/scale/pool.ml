(** Supervised domain worker pool (see the interface for the contract).

    Concurrency layout: one mutex guards the work queue, the reorder
    buffer, the sequence counters, the pool's instruments and the
    supervision state (restart budget, live-worker count). Workers wait
    on [nonempty] (work arrived, or EOF); the coordinator waits on
    [progress] (queue room opened, or a response completed). Request
    handling, [next] and [emit] all run outside the lock.

    Supervision: the worker loop runs under a catch-all. An escaped
    exception — the wedge that used to hang the coordinator forever on
    the dead worker's sequence number — now posts a synthetic
    [worker-crash] response for the in-flight request (order
    preserved), leaves the dead incarnation's registry in the view, and
    respawns a replacement domain after an exponential backoff, up to
    [max_restarts] across the pool's lifetime. When the budget is spent,
    the worker count just shrinks; if the {e last} worker dies over
    budget, it stays behind as a lame-duck drainer answering every
    remaining request with a synthetic [worker-crash] — degraded
    service, but every request still gets exactly one response and the
    coordinator always drains. *)

module Serve = Typeclasses.Serve
module Pipeline = Typeclasses.Pipeline
module Metrics = Tc_obs.Metrics
module Rtrace = Tc_obs.Rtrace
module Mono = Tc_support.Mono
module Inject = Tc_resilience.Inject

type summary = { metrics : Metrics.t; workers : int; restarts : int }

(* The registry every reading of the pool folds: the caller's
   [extra_metrics] registry (the CLI's holds the compile cache and the
   listener), else a fresh one, with the process's registry joined in.
   Every server of the pool reports it through [extra_metrics]. *)
let view (config : Serve.config) =
  let view =
    match config.Serve.extra_metrics with
    | Some v -> v ()
    | None -> Metrics.create ()
  in
  Metrics.join view Pipeline.process_metrics;
  (view, { config with Serve.extra_metrics = Some (fun () -> view) })

(* A server whose registry is part of [view] from its first request to
   the end of the process, whether it drains or dies. *)
let server_in view config =
  let server = Serve.create ~config () in
  Metrics.join view (Serve.metrics server);
  server

let sequential ~config ?stop ?emit_oob ~next ~emit () =
  let view, config = view config in
  let server = server_in view config in
  ignore (Serve.run ~server ?stop ?emit_oob ~next ~emit ());
  { metrics = view; workers = 1; restarts = 0 }

(* How far the coordinator reads ahead of the slowest worker, before
   the clamp to the pool size. *)
let queue_depth = 64

(* The base respawn delay after a worker crash; it doubles per restart,
   capped at 64x. *)
let restart_backoff_ms = 1.

let parallel ~workers ~config ~queue_depth ~max_restarts ~shed_grace_ms
    ~on_lame_duck ~stop ~snapshot_every ~emit_oob ~next ~emit () =
  let lock = Mutex.create () in
  let nonempty = Condition.create () in
  let progress = Condition.create () in
  let rt = config.Serve.rtrace in
  (* Queue entries carry their enqueue time (config clock) so workers
     can compute the queue age that drives deadline shedding, plus the
     trace ID minted at admission and — for sampled requests only — the
     monotonic enqueue time that becomes the "queue" trace event. *)
  let queue : (int * string * float * int * int) Queue.t = Queue.create () in
  (* seq -> (response, trace): the emitter charges its write to the
     response's own trace *)
  let ready : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
  let eof = ref false in
  (* Both counters are written by the coordinator only. *)
  let next_seq = ref 0 in
  let next_emit = ref 0 in

  (* Pool-wide telemetry, registered in the view, and supervision state;
     bumps and supervision state are guarded by [lock]. *)
  let view, config = view config in
  let pool_reg = Metrics.create () in
  Metrics.join view pool_reg;
  let restarts_ctr = Metrics.counter pool_reg "scale/pool/restarts" in
  let depth_gauge = Metrics.gauge pool_reg "scale/pool/queue_depth" in
  (* instantaneous depth, refreshed on every push and pop, so a live
     [metrics]/[stats] request (or an out-of-band snapshot) reports how
     deep the queue is *now*, not just the high-water mark *)
  let depth_now_gauge = Metrics.gauge pool_reg "scale/pool/queue_depth_now" in
  let shed_ctr = Metrics.counter pool_reg "scale/pool/shed" in
  let restarts = ref 0 in
  let live = ref workers in
  let replacements : unit Domain.t list ref = ref [] in
  let clock = config.Serve.clock in

  let post seq ~trace resp =
    Mutex.lock lock;
    Hashtbl.add ready seq (resp, trace);
    (* both the emitter and a backpressure-blocked coordinator wait on
       [progress]; a single signal could wake the wrong one *)
    Condition.broadcast progress;
    Mutex.unlock lock
  in

  (* Dequeue under [lock] (the caller holds it); [None] only at EOF with
     an empty queue, i.e. no request will ever arrive again. *)
  let rec take () =
    if not (Queue.is_empty queue) then begin
      let entry = Queue.pop queue in
      Metrics.set depth_now_gauge (Queue.length queue);
      Some entry
    end
    else if !eof then None
    else begin
      Condition.wait nonempty lock;
      take ()
    end
  in

  let rec worker () =
    let server = server_in view config in
    (* the request this incarnation holds, for crash accounting *)
    let inflight = ref None in
    let outcome =
      try
        let rec loop () =
          Mutex.lock lock;
          match take () with
          | None ->
              Mutex.unlock lock;
              `Done
          | Some (seq, line, enqueued, trace, enq_ns) ->
              (* Queue room opened: the coordinator may be blocked. *)
              Condition.broadcast progress;
              Mutex.unlock lock;
              inflight := Some (seq, line, trace);
              let queued_us =
                int_of_float (Float.max 0. ((clock () -. enqueued) *. 1e6))
              in
              (* the queue-wait event, measured on the monotonic clock
                 from admission to this dequeue *)
              if enq_ns > 0 then
                Rtrace.record_as rt ~trace ~name:"queue" ~ts_ns:enq_ns
                  ~dur_ns:(max 0 (Mono.now_ns () - enq_ns))
                  ~words:0;
              if !Inject.live then
                Inject.hit ~detail:"pool worker" Inject.Worker_crash;
              let resp =
                Serve.handle_line ~queued_us ~trace_id:trace server line
              in
              inflight := None;
              post seq ~trace resp;
              loop ()
        in
        loop ()
      with exn -> `Crashed exn
    in
    match outcome with
    | `Done ->
        Mutex.lock lock;
        decr live;
        Mutex.unlock lock
    | `Crashed exn -> (
        (* The request this incarnation held gets a synthetic response at
           its own sequence number — the coordinator's reorder buffer
           never waits on a dead worker. *)
        (match !inflight with
        | None -> ()
        | Some (seq, line, trace) ->
            let cls, msg = Serve.classify exn in
            post seq ~trace
              (Serve.synthetic_failure ~trace_id:trace server
                 ~cls:"worker-crash"
                 ~message:
                   (Printf.sprintf "worker crashed mid-request (%s: %s)" cls
                      msg)
                 line));
        Mutex.lock lock;
        if !restarts < max_restarts then begin
          incr restarts;
          Metrics.incr restarts_ctr;
          (* exponential backoff, capped at 64x, so a crash loop cannot
             busy-spin the pool *)
          let backoff_s =
            restart_backoff_ms
            *. (2. ** float_of_int (min 6 (!restarts - 1)))
            /. 1000.
          in
          match
            Domain.spawn (fun () ->
                if backoff_s > 0. then config.Serve.sleep backoff_s;
                worker ())
          with
          | d ->
              replacements := d :: !replacements;
              Mutex.unlock lock
          | exception _ ->
              (* could not spawn (domain limit): treat as budget spent *)
              decr live;
              let last = !live <= 0 in
              Mutex.unlock lock;
              if last then drain ()
        end
        else begin
          decr live;
          let last = !live <= 0 in
          Mutex.unlock lock;
          if last then drain ()
        end)
  and drain () =
    (* Restart budget exhausted and no live worker remains: become a
       lame-duck drainer so liveness survives total worker loss. Every
       queued (and still-arriving) request is answered with a synthetic
       worker-crash failure until EOF. The caller is told ([on_lame_duck])
       so it can flip its readiness probe off — a load balancer should
       stop routing here once every answer is a synthetic failure. *)
    on_lame_duck ();
    let server = server_in view config in
    let rec loop () =
      Mutex.lock lock;
      match take () with
      | None -> Mutex.unlock lock
      | Some (seq, line, _, trace, _) ->
          Condition.broadcast progress;
          Mutex.unlock lock;
          post seq ~trace
            (Serve.synthetic_failure ~trace_id:trace server
               ~cls:"worker-crash"
               ~message:
                 (Printf.sprintf
                    "worker pool degraded: restart budget (%d) exhausted"
                    max_restarts)
               line);
          loop ()
    in
    loop ()
  in
  let domains = List.init workers (fun _ -> Domain.spawn worker) in

  (* Admission control: the coordinator owns a server solely to account
     for requests it sheds before they ever reach a worker. *)
  let ctl = server_in view config in

  (* Emit every response as soon as it is next in sequence, from a
     dedicated thread. The coordinator cannot do this between [next]
     calls: a closed-loop client (the TCP front end's normal case)
     sends its next request only after reading its response, so a
     coordinator blocked in [next] while the response sat in [ready]
     would deadlock the connection. [emit] is still called from exactly
     one thread, in sequence order. Collects under the lock, emits
     outside it; exits when the coordinator has seen EOF and every
     sequenced response is out.

     Spontaneous snapshots ride this thread too, as in the sequential
     loop: one after every [snapshot_every]-th response, reading the
     view. They go to [emit_oob] and never consume a sequence number,
     so response routing downstream stays strictly one [next] per
     [emit]. *)
  let emitter =
    Thread.create
      (fun () ->
        (* Write one response, charging the write to the response's own
           trace so a slow/backpressured client shows up as a long
           [emit] event in its requests' timelines. *)
        let emit_traced (resp, trace) =
          if Rtrace.sampled rt trace then begin
            let ts0 = Mono.now_ns () in
            emit resp;
            Rtrace.record_as rt ~trace ~name:"emit" ~ts_ns:ts0
              ~dur_ns:(Mono.now_ns () - ts0) ~words:0
          end
          else emit resp
        in
        (* the view is read before the response is written, so the
           snapshot after response N never holds a request its client
           sent after reading response N *)
        let emitted = ref 0 in
        let emit_one entry =
          incr emitted;
          let snapshot =
            if snapshot_every > 0 && !emitted mod snapshot_every = 0 then
              Some (Serve.snapshot_event_line ~after_requests:!emitted view)
            else None
          in
          emit_traced entry;
          Option.iter emit_oob snapshot
        in
        let rec loop () =
          Mutex.lock lock;
          while
            (not (Hashtbl.mem ready !next_emit))
            && not (!eof && !next_emit >= !next_seq)
          do
            Condition.wait progress lock
          done;
          let batch = ref [] in
          let rec collect () =
            match Hashtbl.find_opt ready !next_emit with
            | None -> ()
            | Some entry ->
                Hashtbl.remove ready !next_emit;
                incr next_emit;
                batch := entry :: !batch;
                collect ()
          in
          collect ();
          let finished = !eof && !next_emit >= !next_seq in
          Mutex.unlock lock;
          List.iter emit_one (List.rev !batch);
          if not finished then loop ()
        in
        loop ())
      ()
  in

  let rec feed () =
    if not (stop ()) then
      match next () with
      | None -> ()
      | Some line ->
          let seq = !next_seq in
          incr next_seq;
          let trace = Rtrace.mint rt in
          Mutex.lock lock;
          (* Backpressure with a grace window: wait for queue room, but
             if the queue stays full past [shed_grace_ms] of (progress-
             signalled) waiting, reject at admission — cheaper than
             letting the request age out in the queue, and bounded
             because supervision guarantees workers keep signalling. A
             negative grace disables admission shedding (pure
             backpressure, the pre-supervision behaviour). *)
          let full_since = ref None in
          let shed = ref false in
          while (not !shed) && Queue.length queue >= queue_depth do
            (match !full_since with
            | None -> full_since := Some (clock ())
            | Some t0 ->
                if
                  shed_grace_ms >= 0.
                  && (clock () -. t0) *. 1000. > shed_grace_ms
                then shed := true);
            if not !shed then Condition.wait progress lock
          done;
          if !shed then begin
            Metrics.incr shed_ctr;
            Mutex.unlock lock;
            post seq ~trace
              (Serve.synthetic_failure ~trace_id:trace ctl ~cls:"shed"
                 ~message:
                   (Printf.sprintf
                      "shed at admission: queue full past the %.0fms grace \
                       window"
                      shed_grace_ms)
                 line)
          end
          else begin
            let enq_ns = if Rtrace.sampled rt trace then Mono.now_ns () else 0 in
            Queue.push (seq, line, clock (), trace, enq_ns) queue;
            (* high-water queue depth; gauges merge by max *)
            let d = Queue.length queue in
            Metrics.set depth_now_gauge d;
            if d > Metrics.gauge_value depth_gauge then
              Metrics.set depth_gauge d;
            Condition.signal nonempty;
            Mutex.unlock lock
          end;
          feed ()
  in
  feed ();

  Mutex.lock lock;
  eof := true;
  Condition.broadcast nonempty;
  (* the emitter's exit condition just became decidable *)
  Condition.broadcast progress;
  Mutex.unlock lock;

  (* Input exhausted: the emitter writes out the in-flight tail, in
     order, then exits. *)
  Thread.join emitter;

  List.iter Domain.join domains;
  (* Replacement domains spawned by crashing workers: joining one may
     race a still-crashing worker spawning another, so drain the list
     to a fixed point. *)
  let rec join_replacements () =
    Mutex.lock lock;
    let ds = !replacements in
    replacements := [];
    Mutex.unlock lock;
    match ds with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join_replacements ()
  in
  join_replacements ();
  { metrics = view; workers; restarts = !restarts }

let run ?(workers = 1) ?(config = Serve.default_config) ?(max_restarts = 8)
    ?(shed_grace_ms = -1.) ?(on_lame_duck = fun () -> ())
    ?(stop = fun () -> false) ?emit_oob ~next ~emit () =
  if workers <= 1 then sequential ~config ~stop ?emit_oob ~next ~emit ()
  else
    (* a queue shallower than the pool would idle workers by
       construction, so the depth is clamped to at least [workers] *)
    parallel ~workers ~config
      ~queue_depth:(max workers queue_depth)
      ~max_restarts ~shed_grace_ms ~on_lame_duck ~stop
      ~snapshot_every:config.Serve.snapshot_every
      ~emit_oob:(match emit_oob with Some f -> f | None -> emit)
      ~next ~emit ()
