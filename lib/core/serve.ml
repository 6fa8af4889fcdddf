module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject
module Json = Tc_obs.Json
module Diag = Tc_obs.Diag
module Metrics = Tc_obs.Metrics
module Rtrace = Tc_obs.Rtrace
module Mono = Tc_support.Mono
module Diagnostic = Tc_support.Diagnostic
module Eval = Tc_eval.Eval
module Counters = Tc_eval.Counters

(* What a check/compile response shows of an accumulating compile, as
   plain data: [schemes] is [None] iff no artifact was produced. *)
type check_answer = {
  diagnostics : Diagnostic.t list;
  schemes : (string * string) list option;
}

let check_answer_of ({ diagnostics; artifact } : Pipeline.checked) =
  {
    diagnostics;
    schemes =
      Option.map
        (fun (c : Pipeline.compiled) ->
          List.map
            (fun (n, s) ->
              (Tc_support.Ident.text n, Tc_types.Scheme.to_string s))
            c.user_schemes)
        artifact;
  }

(* The seams where external layers plug into the request loop without a
   dependency cycle: Tc_scale's compile cache replaces [compile]/[check];
   [specialise] post-processes every run's artifact after the compile
   seam. [mhc serve] does not use [specialise] (its profile is in the
   cache key, so the cache holds specialized artifacts); the traced
   stand-in in perfbench/tracer still sets it. *)
type hooks = {
  compile :
    (opts:Pipeline.options ->
     passes:Tc_opt.Opt.pass list ->
     src:string ->
     Pipeline.compiled)
    option;
  check : (opts:Pipeline.options -> src:string -> check_answer) option;
  specialise : (Pipeline.compiled -> Pipeline.compiled) option;
}

let no_hooks = { compile = None; check = None; specialise = None }

type config = {
  default_budget : Budget.t;
  retries : int;
  backoff_ms : float;
  sleep : float -> unit;
  clock : unit -> float;
  snapshot_every : int;
  base_opts : Pipeline.options;
  max_line_bytes : int;
  default_deadline_ms : int;
  extra_metrics : (unit -> Metrics.t) option;
  ready : unit -> bool;
  rtrace : Tc_obs.Rtrace.t;
  hooks : hooks;
}

let default_config =
  {
    default_budget = Budget.deadline 10_000.;
    retries = 3;
    backoff_ms = 10.;
    sleep = Unix.sleepf;
    clock = Tc_support.Mono.now_s;
    snapshot_every = 0;
    base_opts = Pipeline.default_options;
    max_line_bytes = 1 lsl 20;
    default_deadline_ms = 0;
    extra_metrics = None;
    ready = (fun () -> true);
    rtrace = Rtrace.disabled;
    hooks = no_hooks;
  }

type t = {
  config : config;
  metrics : Metrics.t;
      (* always live: latency histograms, run counters, pipeline spans *)
  started : float;      (* config.clock at creation, for uptime *)
  mutable cur_trace : int;
      (* trace ID of the request being handled, 0 between requests;
         every response built during handling is tagged with it *)
}

let create ?(config = default_config) () =
  {
    config;
    metrics = Metrics.create ~recorder:config.rtrace ();
    started = config.clock ();
    cur_trace = 0;
  }

let metrics t = t.metrics

(* ---- request decoding ---- *)

(* A request that fails to decode: the response still gets exactly one
   line, classified [bad-request]. *)
exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let str_field req name =
  Option.bind (Json.member name req) Json.to_str

let int_field req name = Option.bind (Json.member name req) Json.to_int

let require_src req =
  match str_field req "src" with
  | Some s -> s
  | None -> bad "missing string field \"src\""

(* The ops [handle_line] dispatches, by spelling. A request's op is
   accounted and traced under its own spelling only when it is one of
   these (or [missing]); any other is answered [bad-request] and
   accounted as [unknown], so clients cannot name registry state. *)
let ops =
  [
    ("ping", `Ping); ("health", `Health); ("ready", `Ready);
    ("stats", `Stats); ("metrics", `Metrics); ("trace", `Trace);
    ("check", `Check); ("compile", `Check); ("run", `Run);
  ]

(* A request's op, and the name it is accounted and traced under. *)
let op_of req =
  let op = match str_field req "op" with Some s -> s | None -> "missing" in
  (op, if op = "missing" || List.mem_assoc op ops then op else "unknown")

(* A named field looked up in one of [Pipeline]'s spelling lists;
   [unknown] words the error for a spelling not in it. *)
let spelled req name spellings ~default ~unknown =
  match str_field req name with
  | None -> default
  | Some s -> (
      match List.assoc_opt s spellings with Some v -> v | None -> unknown s)

let strategy_of req (base : Pipeline.options) =
  spelled req "strategy" Pipeline.strategies ~default:base.Pipeline.strategy
    ~unknown:(bad "unknown strategy %S")

let backend_of req =
  spelled req "backend" Pipeline.backends
    ~default:Pipeline.default_backend
    ~unknown:(bad "unknown backend %S (expected \"tree\" or \"vm\")")

let mode_of req =
  spelled req "mode" Pipeline.modes ~default:Pipeline.default_mode
    ~unknown:(bad "unknown mode %S (expected \"lazy\" or \"strict\")")

let passes_of req =
  match str_field req "opt" with
  | None -> []
  | Some s -> (
      match Tc_opt.Opt.of_string s with
      | Some passes -> passes
      | None -> bad "unknown optimization level %S" s)

(* Per-request budget: each present field overrides the server default;
   0 means unlimited (matching the CLI's [--fuel 0]). *)
let budget_of req (dft : Budget.t) : Budget.t =
  let field name current =
    match int_field req name with Some n -> n | None -> current
  in
  {
    Budget.steps = field "fuel" dft.Budget.steps;
    frames = field "frames" dft.Budget.frames;
    wall_ms =
      (match int_field req "timeout_ms" with
      | Some ms -> float_of_int ms
      | None -> dft.Budget.wall_ms);
    allocations = field "allocations" dft.Budget.allocations;
    output_bytes = field "output_bytes" dft.Budget.output_bytes;
  }

(* ---- response encoding ---- *)

let response t ~id ~op fields =
  let base =
    (match id with Some v -> [ ("id", v) ] | None -> [])
    @ [ ("op", Json.Str op) ]
    @ (if t.cur_trace <> 0 then [ ("trace", Json.Int t.cur_trace) ] else [])
  in
  Json.to_line (Json.Obj (base @ fields))

let ok_response t ~id ~op fields =
  response t ~id ~op (("ok", Json.Bool true) :: fields)

let fail_response t ~id ~op ~cls message =
  response t ~id ~op
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("class", Json.Str cls); ("message", Json.Str message) ] );
    ]

(* Classify an escaped exception into a failure class + message: the one
   table every front door (serve, the CLI, the REPL) reports through.
   [stage] names the front door in an ICE's message. *)
let classify ?(stage = "serve") = function
  | Bad_request m -> ("bad-request", m)
  | Diagnostic.Error d -> ("compile", Diagnostic.to_string d)
  | Eval.Runtime_error m -> ("runtime", "runtime error: " ^ m)
  | Eval.User_error m -> ("runtime", "error: " ^ m)
  | Eval.Pattern_fail m -> ("runtime", "pattern-match failure: " ^ m)
  | Budget.Exhausted { resource; spent; limit } ->
      ("resource", Budget.message resource ~spent ~limit)
  | Out_of_memory -> ("resource", "resource exhausted: memory")
  | Stack_overflow ->
      ("resource", Budget.message Budget.Frames ~spent:0 ~limit:0)
  | Inject.Transient { point; detail } ->
      let what = if detail = "" then Inject.point_name point else detail in
      ("transient", "transient fault persisted: " ^ what)
  | exn ->
      ( "ice",
        Diagnostic.to_string
          (Diagnostic.of_exn ~stage ~loc:Tc_support.Loc.none exn) )

(* ---- operations ---- *)

(* Requests compile with the server's registry, so pipeline phase spans
   accumulate across requests and show up in the [metrics] op. *)
let opts_for t req =
  let base = t.config.base_opts in
  {
    base with
    Pipeline.strategy = strategy_of req base;
    metrics = t.metrics;
  }

let diagnostics_fields (ds : Diagnostic.t list) =
  let count sev =
    List.length
      (List.filter (fun (d : Diagnostic.t) -> d.severity = sev) ds)
  in
  [
    ("diagnostics", Diag.json_list (Diagnostic.sort ds));
    ("errors", Json.Int (count Diagnostic.Error));
    ("warnings", Json.Int (count Diagnostic.Warning));
    ("ice", Json.Int (count Diagnostic.Bug));
  ]

(* check/compile: accumulating compile; containment inside
   [compile_collect] turns injected compile-stage faults into Bug
   diagnostics, so these ops answer [ok] with an [ice] tally rather
   than failing. *)
let do_check t ~id ~op req =
  let src = require_src req in
  let opts = opts_for t req in
  let { diagnostics; schemes } =
    match t.config.hooks.check with
    | Some hook -> hook ~opts ~src
    | None ->
        check_answer_of (Pipeline.compile_collect ~opts ~file:"<serve>" src)
  in
  let extra =
    match (op, schemes) with
    | "compile", Some ss ->
        [ ("schemes", Json.Obj (List.map (fun (n, s) -> (n, Json.Str s)) ss)) ]
    | _ -> []
  in
  ok_response t ~id ~op
    (diagnostics_fields diagnostics
    @ [ ("artifact", Json.Bool (schemes <> None)) ]
    @ extra)

(* The run counters every [run] adds to, one per [Counters] field. *)
let run_prefix = "run/"

let do_run t ~id req =
  let src = require_src req in
  let opts = opts_for t req in
  let backend = backend_of req in
  let mode = mode_of req in
  let budget = budget_of req t.config.default_budget in
  let c =
    match t.config.hooks.compile with
    | Some hook -> hook ~opts ~passes:(passes_of req) ~src
    | None ->
        let c = Pipeline.compile ~opts ~file:"<serve>" src in
        Pipeline.optimize (passes_of req) c
  in
  (* the specialise seam runs on whatever the compile seam produced, so a
     cache hit still gets (re-)specialized for this server's policy *)
  let c =
    match t.config.hooks.specialise with
    | Some hook -> hook c
    | None -> c
  in
  let r = Pipeline.exec ~backend ~mode ~budget c in
  List.iter
    (fun (name, n) ->
      Metrics.add (Metrics.counter t.metrics (run_prefix ^ name)) n)
    (Counters.pairs r.Pipeline.counters);
  ok_response t ~id ~op:"run"
    [
      ("value", Json.Str r.Pipeline.rendered);
      ("counters", Counters.to_json r.Pipeline.counters);
    ]

let latency_prefix = "serve/latency/"

(* ---- reading the serve instruments back ---- *)

(* Histogram counts under [prefix], keyed by the rest of the name. *)
let counts_under prefix m =
  let n = String.length prefix in
  List.filter_map
    (fun (name, h) ->
      if String.starts_with ~prefix name then
        Some (String.sub name n (String.length name - n), Metrics.hist_count h)
      else None)
    (Metrics.histograms m)

let counter_in m name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.counters m))

let requests m = counter_in m "serve/requests"
let retries m = counter_in m "serve/retries"
let failures m = counts_under "serve/failures/" m
let failed m = List.fold_left (fun n (_, k) -> n + k) 0 (failures m)

(* All per-op latency histograms merged into one. Merging is exact
   (elementwise), so this equals observing every request into a single
   histogram. *)
let latency_total m =
  let acc = Metrics.histogram (Metrics.create ()) "acc" in
  List.iter
    (fun (name, h) ->
      if String.starts_with ~prefix:latency_prefix name then
        Metrics.merge_hist ~into:acc h)
    (Metrics.histograms m);
  acc

let uptime_ms t =
  int_of_float ((t.config.clock () -. t.started) *. 1000.)

(* What the stats/metrics ops and the snapshot lines report: one fold of
   the server's registry, the process's ([Pipeline.process_metrics]) and
   the [extra_metrics] view. A registry reachable twice counts once, so
   a pool's view, which holds this server's registry, adds nothing
   twice. *)
let view t =
  Metrics.fold
    (t.metrics :: Pipeline.process_metrics
    :: Option.fold ~none:[] ~some:(fun v -> [ v () ]) t.config.extra_metrics)

(* The stats op's body, derived from the view. The view holds finished
   requests only, so the stats request being handled counts in
   [requests] and [by_op] but not yet in [responses] or [ok]. *)
let stats_json t =
  let m = view t in
  let answered = requests m and failed = failed m in
  let tally assoc =
    Json.Obj
      (List.sort compare (List.map (fun (k, v) -> (k, Json.Int v)) assoc))
  in
  let named prefixes =
    List.filter
      (fun (name, _) ->
        List.exists (fun prefix -> String.starts_with ~prefix name) prefixes)
      (Metrics.counters m @ Metrics.gauges m)
  in
  let by_op =
    let ops = counts_under latency_prefix m in
    let n = Option.value ~default:0 (List.assoc_opt "stats" ops) in
    ("stats", n + 1) :: List.remove_assoc "stats" ops
  in
  let latency = latency_total m in
  (* the run counters summed over every run the view holds, in the
     order of a [run] response's [counters] *)
  let runs =
    Json.Obj
      (List.map
         (fun (name, _) -> (name, Json.Int (counter_in m (run_prefix ^ name))))
         (Counters.pairs (Counters.create ())))
  in
  Json.Obj
    [
      ("requests", Json.Int (answered + 1));
      ("responses", Json.Int answered);
      ("ok", Json.Int (answered - failed));
      ("failed", Json.Int failed);
      ("retried", Json.Int (retries m));
      ("uptime_ms", Json.Int (uptime_ms t));
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int (Metrics.hist_count latency));
            ("p50_us", Json.Int (Metrics.quantile latency 0.5));
            ("p99_us", Json.Int (Metrics.quantile latency 0.99));
          ] );
      ("by_op", tally by_op);
      ("by_class", tally (failures m));
      ("counters", runs);
      ("prelude", tally (named [ "prelude/" ]));
      ("memory", tally (named [ "ident/"; "gc/" ]));
      (* pool restarts, queue depth, cache hits, connections, ... *)
      ("scale", tally (named [ "scale/"; "net/" ]));
    ]

let do_stats t ~id = ok_response t ~id ~op:"stats" [ ("stats", stats_json t) ]

(* metrics: the whole registry as one deterministic snapshot; [stable]
   redacts machine-dependent quantities for golden comparison. The
   snapshot is taken before this request's own bookkeeping runs, so
   within it the per-op latency counts sum exactly to [serve/requests]. *)
let do_metrics t ~id req =
  let stable =
    match Json.member "stable" req with Some (Json.Bool b) -> b | _ -> false
  in
  ok_response t ~id ~op:"metrics"
    [ ("metrics", Metrics.snapshot ~stable (view t)) ]

(* trace: the flight recorder's current window as a Chrome trace-event
   document. With the recorder disabled this still answers ok (an empty
   window) so clients can probe whether tracing is armed via
   [recording]. *)
let do_trace t ~id =
  let rt = t.config.rtrace in
  ok_response t ~id ~op:"trace"
    [ ("recording", Json.Bool (Rtrace.is_on rt)); ("dump", Rtrace.dump rt) ]

(* ---- the request boundary ---- *)

(* Run [f] retrying transient faults with exponential backoff. Only the
   [Transient] class retries: anything else is either deterministic
   (compile/runtime/resource errors recur identically) or an ICE (retry
   would mask a bug the response should surface). *)
let with_retries t f =
  let rec go attempt backoff =
    match f () with
    | v -> v
    | exception Inject.Transient _ when attempt < t.config.retries ->
        (* created on the first retry, so retry-free snapshots lack it *)
        Metrics.incr (Metrics.counter t.metrics "serve/retries");
        t.config.sleep (backoff /. 1000.);
        go (attempt + 1) (backoff *. 2.)
  in
  go 0 t.config.backoff_ms

(* The one bookkeeping point per answered request: the [serve/requests]
   counter and the op's latency histogram are bumped together, and a
   failure also observes its latency under its class. Every count the
   stats op and the pool summary report derives from these. The bumps
   run under the registry's lock, so a view read from another domain
   sees all of them or none: the per-op latency counts sum to
   [serve/requests] in every snapshot. *)
let account t ~op ~cls us =
  let m = t.metrics in
  let requests = Metrics.counter m "serve/requests" in
  let latency = Metrics.histogram m (latency_prefix ^ op) in
  let failure =
    Option.map (fun cls -> Metrics.histogram m ("serve/failures/" ^ cls)) cls
  in
  Metrics.atomically m (fun () ->
      Metrics.incr requests;
      Metrics.observe latency us;
      Option.iter (fun h -> Metrics.observe h us) failure)

let handle_line ?(queued_us = 0) ?trace_id t line =
  let t0 = t.config.clock () in
  let rt = t.config.rtrace in
  (* The trace ID is minted here unless the pool already minted it at
     admission. Every response built during handling carries it; span
     events record under it while it is the domain's current trace. *)
  let trace = match trace_id with Some tr -> tr | None -> Rtrace.mint rt in
  t.cur_trace <- trace;
  let traced = Rtrace.sampled rt trace in
  let ts0 = if traced then Mono.now_ns () else 0 in
  if traced then Rtrace.set_current rt trace;
  (* Accounted once, after the response is built, so in any registry
     snapshot — including one taken by a [metrics] request mid-stream —
     the per-op latency counts sum exactly to the request counter. The
     request's root trace event ([request/<op>]) is recorded here too,
     after the phase events it encloses. *)
  let finish ~op ~cls resp =
    account t ~op ~cls (int_of_float ((t.config.clock () -. t0) *. 1e6));
    if traced then begin
      Rtrace.clear_current rt;
      Rtrace.record_as rt ~trace ~name:("request/" ^ op) ~ts_ns:ts0
        ~dur_ns:(Mono.now_ns () - ts0) ~words:0
    end;
    t.cur_trace <- 0;
    resp
  in
  let cap = t.config.max_line_bytes in
  if cap > 0 && String.length line > cap then begin
    (* Degenerate input: don't even hand it to the JSON parser. The
       [bounded_next] reader truncates such lines to [cap + 1] bytes, so
       this test still fires after truncation without the server ever
       buffering the full line. *)
    finish ~op:"oversized" ~cls:(Some "bad-request")
      (fail_response t ~id:None ~op:"oversized" ~cls:"bad-request"
         (Printf.sprintf "request line exceeds %d bytes" cap))
  end
  else
  match Json.parse line with
  | Error m ->
      finish ~op:"invalid" ~cls:(Some "bad-request")
        (fail_response t ~id:None ~op:"invalid" ~cls:"bad-request"
           ("invalid JSON: " ^ m))
  | Ok req -> (
      let id = Json.member "id" req in
      let op, name = op_of req in
      (* Deadline-based shedding: a request that already aged past its
         deadline while queued (the pool passes [queued_us]) is rejected
         here, before any compile work — answering late is worse than
         answering [shed] promptly, and the cycles are better spent on
         requests that can still make their deadline. *)
      let deadline_ms =
        match int_field req "deadline_ms" with
        | Some ms -> ms
        | None -> t.config.default_deadline_ms
      in
      if deadline_ms > 0 && queued_us > deadline_ms * 1000 then
        finish ~op:name ~cls:(Some "shed")
          (fail_response t ~id ~op ~cls:"shed"
             (Printf.sprintf
                "shed: aged %dms in queue, past the %dms deadline"
                (queued_us / 1000) deadline_ms))
      else
      try
        finish ~op:name ~cls:None
          (with_retries t @@ fun () ->
           if !Inject.live then Inject.hit Inject.Serve_transient;
           match List.assoc_opt op ops with
           | Some `Ping -> ok_response t ~id ~op:"ping" []
           (* Liveness: the loop is handling requests at all. Always ok
              while the process answers — a monitor that can't get this
              line should restart the process. *)
           | Some `Health ->
               ok_response t ~id ~op:"health"
                 [
                   ("status", Json.Str "ok");
                   ("uptime_ms", Json.Int (uptime_ms t));
                 ]
           (* Readiness: whether new work should be routed here. Still
              [ok:true] — not being ready is a reported state, not a
              failure — with the verdict in the [ready] field. Flips
              false during drain and pool lame-duck. *)
           | Some `Ready ->
               ok_response t ~id ~op:"ready"
                 [ ("ready", Json.Bool (t.config.ready ())) ]
           | Some `Stats -> do_stats t ~id
           | Some `Metrics -> do_metrics t ~id req
           | Some `Trace -> do_trace t ~id
           | Some `Check -> do_check t ~id ~op req
           | Some `Run -> do_run t ~id req
           | None when op = "missing" -> bad "missing string field \"op\""
           | None -> bad "unknown op %S" op)
      with exn ->
        let cls, message = classify exn in
        finish ~op:name ~cls:(Some cls) (fail_response t ~id ~op ~cls message))

(* A response manufactured on behalf of a request that never (fully)
   reached [handle_line]: the pool supervisor answers for a request
   whose worker died mid-flight ([worker-crash]) and its admission
   control rejects requests when the queue has been full past the
   grace window ([shed]). It is accounted like any answered request,
   with latency 0 (the request did no work here), so the merged-registry
   invariant (per-op latency counts summing exactly to [serve/requests])
   keeps holding when synthetic responses are counted. *)
let synthetic_failure ?trace_id t ~cls ~message line =
  let id, op, name =
    match Json.parse line with
    | Error _ -> (None, "invalid", "invalid")
    | Ok req ->
        let op, name = op_of req in
        (Json.member "id" req, op, name)
  in
  let rt = t.config.rtrace in
  let trace = match trace_id with Some tr -> tr | None -> Rtrace.mint rt in
  t.cur_trace <- trace;
  let resp = fail_response t ~id ~op ~cls message in
  account t ~op:name ~cls:(Some cls) 0;
  (* a zero-duration root event, so shed/crashed requests still show up
     (with their op) in the dump and the slowest-N digest's input *)
  if Rtrace.sampled rt trace then
    Rtrace.record_as rt ~trace ~name:("request/" ^ name)
      ~ts_ns:(Mono.now_ns ()) ~dur_ns:0 ~words:0;
  t.cur_trace <- 0;
  resp

(* A spontaneous (not request/response) snapshot line, which the pool
   sends after every [snapshot_every]-th response; distinguished by its
   ["event"] field. *)
let snapshot_event_line ~after_requests m =
  Json.to_line
    (Json.Obj
       [
         ("event", Json.Str "metrics-snapshot");
         ("after_requests", Json.Int after_requests);
         ("metrics", Metrics.snapshot m);
       ])

(* The line-cap rule, shared with the TCP reader: bytes past
   [max_bytes] are discarded as they stream in, keeping exactly one
   extra byte so [handle_line]'s length test still classifies the
   request as oversized. A 100 GB line therefore costs 100 GB of reading
   but only [max_bytes + 1] bytes of memory. *)
let scan_line ~max_bytes line chunk pos stop =
  let nl = ref pos in
  while !nl < stop && Bytes.unsafe_get chunk !nl <> '\n' do
    incr nl
  done;
  let keep =
    if max_bytes = 0 then !nl - pos
    else min (!nl - pos) (max_bytes + 1 - Buffer.length line)
  in
  if keep > 0 then Buffer.add_subbytes line chunk pos keep;
  !nl

(* Tolerate CRLF line endings (netcat on Windows, telnet, HTTP-ish
   clients poking the socket): a trailing '\r' is part of the line
   terminator, not the request. Only the final byte is stripped —
   embedded '\r' still reaches the parser and fails as bad JSON. *)
let take_line ~max_bytes line =
  let n = Buffer.length line in
  (* never strip from a truncated (over-cap) line: that last byte is
     retained garbage, not a terminator, and removing it would demote
     the request from oversized to merely invalid *)
  let s =
    if
      n > 0
      && (max_bytes = 0 || n <= max_bytes)
      && Buffer.nth line (n - 1) = '\r'
    then Buffer.sub line 0 (n - 1)
    else Buffer.contents line
  in
  Buffer.clear line;
  s

let read_chunk_bytes = 65536

(* Reads a block at a time into a chunk the closure owns, so bytes past
   the line returned wait there for the next call. *)
let bounded_next ?(max_bytes = default_config.max_line_bytes) ic =
  let line = Buffer.create 256 in
  let chunk = Bytes.create read_chunk_bytes in
  let pos = ref 0 and stop = ref 0 in
  (* a byte of the current line has been read, so end of input ends it *)
  let pending = ref false in
  let rec next () =
    if !pos < !stop then begin
      let nl = scan_line ~max_bytes line chunk !pos !stop in
      pos := nl + 1;
      pending := nl = !stop;
      if !pending then next () else Some (take_line ~max_bytes line)
    end
    else
      match In_channel.input ic chunk 0 read_chunk_bytes with
      | 0 when !pending ->
          pending := false;
          Some (take_line ~max_bytes line)
      | 0 -> None
      | n ->
          pos := 0;
          stop := n;
          next ()
  in
  next
