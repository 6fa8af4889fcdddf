(** Supervised domain worker pool (see the interface for the contract).

    Concurrency layout (more than one worker): one mutex guards the work
    queue, the reorder buffer, the sequence counters, the pool's
    instruments and the supervision state (restart budget, live-worker
    count). Workers wait on [nonempty] (work arrived, or the pool
    closed); submitters and the emitter wait on [progress] (queue room
    opened, or a response completed). Request handling and replies run
    outside the lock. A worker's catch-all turns an escaped exception
    into a synthetic [worker-crash] response at the held request's own
    sequence number, then respawns the worker, within the restart
    budget, or leaves the last one as a lame-duck drainer. *)

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

type t = {
  submit : string -> reply:(string -> unit) -> unit;
  close : unit -> summary;
}

let submit t line ~reply = t.submit line ~reply
let close t = t.close ()

(* The monotonic admission time of a sampled request, the start of its
   [queue] event; 0 for an unsampled one. *)
let admitted rt trace = if Rtrace.sampled rt trace then Mono.now_ns () else 0

let record_queue rt ~trace admitted_ns =
  if admitted_ns > 0 then
    Rtrace.record_as rt ~trace ~name:"queue" ~ts_ns:admitted_ns
      ~dur_ns:(max 0 (Mono.now_ns () - admitted_ns))
      ~words:0

(* The last step of every response, taken by one thread at a time in
   admission order: [reply] writes it, charged to the request's own
   trace as its [emit] event, so a slow client shows up in its
   requests' timelines. Every [snapshot_every]-th response is followed
   by an out-of-band snapshot of the view, read before the response is
   written, so the snapshot after response N never holds a request its
   client sent after reading response N. *)
let answerer ~config ~view ~emit_oob =
  let rt = config.Serve.rtrace and every = config.Serve.snapshot_every in
  let answered = ref 0 in
  fun ~trace ~reply resp ->
    incr answered;
    let snapshot =
      if every > 0 && !answered mod every = 0 then
        Some (Serve.snapshot_event_line ~after_requests:!answered view)
      else None
    in
    (if Rtrace.sampled rt trace then begin
       let ts0 = Mono.now_ns () in
       reply resp;
       Rtrace.record_as rt ~trace ~name:"emit" ~ts_ns:ts0
         ~dur_ns:(Mono.now_ns () - ts0) ~words:0
     end
     else reply resp);
    Option.iter emit_oob snapshot

(* One worker: the submitting thread handles its own request. Turns go
   out by ticket, in admission order, so concurrent submitters (one TCP
   reader per connection) take turns FIFO; a bare mutex is not fair and
   would let one pipelining connection starve the others. *)
let one_worker ~config ~emit_oob =
  let view, config = view config in
  let server = server_in view config in
  let rt = config.Serve.rtrace in
  let answer = answerer ~config ~view ~emit_oob in
  let lock = Mutex.create () and turn = Condition.create () in
  let tickets = ref 0 and serving = ref 0 in
  let submit line ~reply =
    Mutex.lock lock;
    let ticket = !tickets in
    incr tickets;
    let trace = Rtrace.mint rt in
    let admitted_ns = admitted rt trace in
    while !serving <> ticket do
      Condition.wait turn lock
    done;
    Mutex.unlock lock;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock lock;
        incr serving;
        Condition.broadcast turn;
        Mutex.unlock lock)
      (fun () ->
        record_queue rt ~trace admitted_ns;
        answer ~trace ~reply (Serve.handle_line ~trace_id:trace server line))
  in
  {
    submit;
    close = (fun () -> { metrics = view; workers = 1; restarts = 0 });
  }

(* How far admission runs ahead of the slowest worker, before the clamp
   to the pool size. *)
let queue_depth = 64

(* The base respawn delay after a worker crash; it doubles per restart,
   capped at 64x. *)
let restart_backoff_ms = 1.

(* An admitted request: its place in the response order, its trace, its
   admission times and where its response goes. *)
type job = {
  seq : int;
  line : string;
  trace : int;
  enqueued : float;  (* config clock: the queue age behind deadline shedding *)
  admitted_ns : int;  (* the [queue] event's start, sampled traces only *)
  reply : string -> unit;
}

let parallel ~workers ~config ~max_restarts ~shed_grace_ms ~on_lame_duck
    ~emit_oob =
  (* a queue shallower than the pool would idle workers by construction *)
  let queue_depth = max workers queue_depth in
  let lock = Mutex.create () in
  let nonempty = Condition.create () in
  let progress = Condition.create () in
  let rt = config.Serve.rtrace in
  let queue : job Queue.t = Queue.create () in
  (* seq -> (job, response), re-sequenced by the emitter *)
  let ready : (int, job * string) Hashtbl.t = Hashtbl.create 64 in
  let closed = ref false in
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

  (* Caller holds [lock]. The emitter and blocked submitters both wait
     on [progress]; a single signal could wake the wrong one. *)
  let post_locked job resp =
    Hashtbl.add ready job.seq (job, resp);
    Condition.broadcast progress
  in
  let post job resp =
    Mutex.lock lock;
    post_locked job resp;
    Mutex.unlock lock
  in

  (* Dequeue under [lock] (the caller holds it); [None] only once the
     pool is closed with an empty queue, i.e. no request will ever
     arrive again. Queue room opened: a submitter may be blocked. *)
  let rec take () =
    if not (Queue.is_empty queue) then begin
      let job = Queue.pop queue in
      Metrics.set depth_now_gauge (Queue.length queue);
      Condition.broadcast progress;
      Some job
    end
    else if !closed then None
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
          | Some job ->
              Mutex.unlock lock;
              inflight := Some job;
              let queued_us =
                int_of_float
                  (Float.max 0. ((clock () -. job.enqueued) *. 1e6))
              in
              record_queue rt ~trace:job.trace job.admitted_ns;
              if !Inject.live then
                Inject.hit ~detail:"pool worker" Inject.Worker_crash;
              let resp =
                Serve.handle_line ~queued_us ~trace_id:job.trace server
                  job.line
              in
              inflight := None;
              post job resp;
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
           its own sequence number — the reorder buffer never waits on a
           dead worker. *)
        (match !inflight with
        | None -> ()
        | Some job ->
            let cls, msg = Serve.classify exn in
            post job
              (Serve.synthetic_failure ~trace_id:job.trace server
                 ~cls:"worker-crash"
                 ~message:
                   (Printf.sprintf "worker crashed mid-request (%s: %s)" cls
                      msg)
                 job.line));
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
       worker-crash failure until the pool closes. The caller is told
       ([on_lame_duck]) so it can flip its readiness probe off — a load
       balancer should stop routing here once every answer is a
       synthetic failure. *)
    on_lame_duck ();
    let server = server_in view config in
    let rec loop () =
      Mutex.lock lock;
      match take () with
      | None -> Mutex.unlock lock
      | Some job ->
          Mutex.unlock lock;
          post job
            (Serve.synthetic_failure ~trace_id:job.trace server
               ~cls:"worker-crash"
               ~message:
                 (Printf.sprintf
                    "worker pool degraded: restart budget (%d) exhausted"
                    max_restarts)
               job.line);
          loop ()
    in
    loop ()
  in
  let domains = List.init workers (fun _ -> Domain.spawn worker) in

  (* Admission control owns a server solely to account for requests it
     sheds before they ever reach a worker; it is used under [lock]. *)
  let ctl = server_in view config in

  (* Call each response's [reply] as soon as it is next in sequence, from
     a dedicated thread, so a submitter never waits on a reply: a
     closed-loop client sends its next request only after reading its
     response. Collects under the lock, answers outside it; exits when
     the pool is closed and every admitted request is answered. *)
  let answer = answerer ~config ~view ~emit_oob in
  let emitter =
    Thread.create
      (fun () ->
        let rec loop () =
          Mutex.lock lock;
          while
            (not (Hashtbl.mem ready !next_emit))
            && not (!closed && !next_emit >= !next_seq)
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
          let finished = !closed && !next_emit >= !next_seq in
          Mutex.unlock lock;
          List.iter
            (fun (job, resp) -> answer ~trace:job.trace ~reply:job.reply resp)
            (List.rev !batch);
          if not finished then loop ()
        in
        loop ())
      ()
  in

  let submit line ~reply =
    Mutex.lock lock;
    (* Backpressure with a grace window: wait for queue room, but if the
       queue stays full past [shed_grace_ms] of (progress-signalled)
       waiting, reject at admission — cheaper than letting the request
       age out in the queue, and bounded because supervision guarantees
       workers keep signalling. A negative grace disables admission
       shedding (pure backpressure). *)
    let full_since = ref None in
    let shed = ref false in
    while (not !shed) && Queue.length queue >= queue_depth do
      (match !full_since with
      | None -> full_since := Some (clock ())
      | Some t0 ->
          if shed_grace_ms >= 0. && (clock () -. t0) *. 1000. > shed_grace_ms
          then shed := true);
      if not !shed then Condition.wait progress lock
    done;
    (* Admission: the sequence number and the trace ID are minted here,
       under the lock, so both follow admission order. *)
    let seq = !next_seq in
    incr next_seq;
    let trace = Rtrace.mint rt in
    let job =
      { seq; line; trace; enqueued = clock (); admitted_ns = 0; reply }
    in
    if !shed then begin
      Metrics.incr shed_ctr;
      post_locked job
        (Serve.synthetic_failure ~trace_id:trace ctl ~cls:"shed"
           ~message:
             (Printf.sprintf
                "shed at admission: queue full past the %.0fms grace window"
                shed_grace_ms)
           line)
    end
    else begin
      Queue.push { job with admitted_ns = admitted rt trace } queue;
      (* high-water queue depth; gauges merge by max *)
      let d = Queue.length queue in
      Metrics.set depth_now_gauge d;
      if d > Metrics.gauge_value depth_gauge then Metrics.set depth_gauge d;
      Condition.signal nonempty
    end;
    Mutex.unlock lock
  in

  let close () =
    Mutex.lock lock;
    closed := true;
    Condition.broadcast nonempty;
    (* the emitter's exit condition just became decidable *)
    Condition.broadcast progress;
    Mutex.unlock lock;
    (* the emitter answers the in-flight tail, in order, then exits *)
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
  in
  { submit; close }

let start ?(workers = 1) ?(config = Serve.default_config) ?(max_restarts = 8)
    ?(shed_grace_ms = -1.) ?(on_lame_duck = fun () -> ()) ~emit_oob () =
  if workers <= 1 then one_worker ~config ~emit_oob
  else
    parallel ~workers ~config ~max_restarts ~shed_grace_ms ~on_lame_duck
      ~emit_oob

let run ?workers ?config ?max_restarts ?shed_grace_ms ?on_lame_duck
    ?(stop = fun () -> false) ?emit_oob ~next ~emit () =
  let pool =
    start ?workers ?config ?max_restarts ?shed_grace_ms ?on_lame_duck
      ~emit_oob:(Option.value emit_oob ~default:emit)
      ()
  in
  let rec loop () =
    if not (stop ()) then
      match next () with
      | None -> ()
      | Some line ->
          submit pool line ~reply:emit;
          loop ()
  in
  loop ();
  close pool
