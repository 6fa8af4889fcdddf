(** The scaling layer: content-addressed compile cache, domain worker
    pool, and load generator.

    - Cache keys cover exactly the output-relevant inputs: source,
      strategy, optimizer passes; observation sinks are excluded.
    - A cache hit skips the front end entirely — over a serving pair of
      identical requests the [compile] phase span count stays at 1
      while [serve/requests] reaches 2.
    - Eviction respects the byte budget; verification recompiles
      sampled hits and self-heals on mismatch.
    - The pool preserves request→response order under out-of-order
      completion, and its merged registry preserves the telemetry
      invariant (latency counts sum to [serve/requests]).
    - Oversized request lines classify as [bad-request] without
      unbounded buffering. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Cache = Tc_scale.Cache
module Pool = Tc_scale.Pool
module Loadgen = Tc_scale.Loadgen

let demo = "double :: Num a => a -> a\ndouble x = x + x\nmain = double 21\n"

let counter_of m name =
  match List.assoc_opt name (Metrics.counters m) with
  | Some n -> n
  | None -> 0

let cache_counter c name = counter_of (Cache.metrics c) ("scale/cache/" ^ name)

let default_opts = Pipeline.default_options

(* ------------------------------------------------------------------ *)
(* Cache.                                                              *)
(* ------------------------------------------------------------------ *)

let cache_cases =
  [
    case "second compile of identical source is a hit" (fun () ->
        let c = Cache.create () in
        let a = Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo in
        let b = Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo in
        Alcotest.(check int) "one miss" 1 (cache_counter c "misses");
        Alcotest.(check int) "one hit" 1 (cache_counter c "hits");
        Alcotest.(check int) "one insert" 1 (cache_counter c "inserts");
        Alcotest.(check int) "one entry" 1 (Cache.entries c);
        Alcotest.(check bool) "bytes accounted" true (Cache.bytes c > 0);
        (* both artifacts execute to the same answer *)
        let exec x =
          (Pipeline.exec ~budget:(Pipeline.Budget.fuel 1_000_000) x)
            .Pipeline.rendered
        in
        Alcotest.(check string) "same result" (exec a) (exec b));
    case "key covers src, strategy and passes; not sinks" (fun () ->
        let k = Cache.key (`Run []) ~opts:default_opts ~src:demo in
        Alcotest.(check bool) "src changes the key" true
          (k <> Cache.key (`Run []) ~opts:default_opts ~src:(demo ^ " "));
        Alcotest.(check bool) "strategy changes the key" true
          (k
          <> Cache.key (`Run [])
               ~opts:{ default_opts with Pipeline.strategy = Pipeline.Tags }
               ~src:demo);
        (match Tc_opt.Opt.of_string "all" with
        | Some passes ->
            Alcotest.(check bool) "passes change the key" true
              (k <> Cache.key (`Run passes) ~opts:default_opts ~src:demo)
        | None -> Alcotest.fail "opt level \"all\" should parse");
        Alcotest.(check bool) "check path is keyed apart" true
          (k <> Cache.key `Check ~opts:default_opts ~src:demo);
        Alcotest.(check string) "metrics/trace excluded" k
          (Cache.key (`Run [])
             ~opts:{ default_opts with Pipeline.metrics = Metrics.create () }
             ~src:demo);
        (* the specializer options are artifact-relevant: a loaded profile
           or a different budget must key apart (spec_signature), else a
           hit could hand back a differently-specialized artifact *)
        let spec_opts s =
          { default_opts with Pipeline.specialise = s }
        in
        let profiled =
          let c = Pipeline.compile ~file:"cache.mhs" demo in
          Tc_obs.Profile.spec_of_report
            (Option.get (Pipeline.exec ~profile:true c).Pipeline.profile)
        in
        Alcotest.(check bool) "a spec profile changes the key" true
          (k
          <> Cache.key (`Run [])
               ~opts:
                 (spec_opts
                    {
                      Pipeline.default_spec with
                      Pipeline.spec_profile = Some profiled;
                    })
               ~src:demo);
        Alcotest.(check bool) "the clone budget changes the key" true
          (k
          <> Cache.key (`Run [])
               ~opts:
                 (spec_opts
                    { Pipeline.default_spec with Pipeline.spec_max_clones = 7 })
               ~src:demo);
        Alcotest.(check string) "the default spec options are the baseline" k
          (Cache.key (`Run [])
             ~opts:(spec_opts Pipeline.default_spec)
             ~src:demo));
    case "serve hit skips the front end (compile span stays at 1)"
      (fun () ->
        let cache = Cache.create () in
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            hooks =
              {
                Serve.no_hooks with
                Serve.compile =
                  Some
                    (fun ~opts ~passes ~src ->
                      Cache.compile_run cache ~opts ~passes ~src);
              };
          }
        in
        let t = Serve.create ~config () in
        let req =
          Json.to_line
            (Json.Obj [ ("op", Json.Str "run"); ("src", Json.Str demo) ])
        in
        ignore (Serve.handle_line t req);
        ignore (Serve.handle_line t req);
        Alcotest.(check int) "two requests" 2
          (counter_of (Serve.metrics t) "serve/requests");
        Alcotest.(check int) "one cache hit" 1 (cache_counter cache "hits");
        let compile_spans =
          List.filter
            (fun (s : Metrics.span_stat) -> s.Metrics.sp_name = "compile")
            (Metrics.spans (Serve.metrics t))
        in
        match compile_spans with
        | [ s ] ->
            Alcotest.(check int)
              "front end ran once for two requests" 1 s.Metrics.sp_count
        | l -> Alcotest.failf "expected one compile span, got %d"
                 (List.length l));
    case "byte budget evicts least-recently-used entries" (fun () ->
        (* budget far below one artifact: every insert evicts the last *)
        let c = Cache.create ~max_bytes:1024 () in
        let src i = Printf.sprintf "main = %d" i in
        for i = 1 to 3 do
          ignore (Cache.compile_run c ~opts:default_opts ~passes:[]
                    ~src:(src i))
        done;
        Alcotest.(check int) "three inserts" 3 (cache_counter c "inserts");
        Alcotest.(check bool) "evictions happened" true
          (cache_counter c "evictions" >= 2);
        Alcotest.(check bool) "occupancy bounded" true (Cache.entries c <= 1));
    case "a 1 MiB budget keeps an artifact smaller than itself" (fun () ->
        (* the whole budget applies to the whole table: one artifact and
           the snapshot it shares fit, so the repeat is a hit *)
        let src =
          In_channel.with_open_bin "../examples/programs/matrix.mhs"
            In_channel.input_all
        in
        let c = Cache.create ~max_bytes:(1 lsl 20) () in
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src);
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src);
        Alcotest.(check bool) "entry and snapshot under budget" true
          (Cache.bytes c <= 1 lsl 20);
        Alcotest.(check int) "second compile hits" 1 (cache_counter c "hits");
        Alcotest.(check int) "no evictions" 0 (cache_counter c "evictions"));
    case "eviction takes the globally least recently used entry" (fun () ->
        let check c i =
          ignore
            (Cache.check c ~opts:default_opts
               ~src:(Printf.sprintf "main = %d" i))
        in
        (* four answers of one size, measured under the default budget *)
        let sized = Cache.create () in
        check sized 1;
        let one = Cache.bytes sized in
        List.iter (check sized) [ 2; 3; 4 ];
        Alcotest.(check int) "equal-sized answers" (4 * one)
          (Cache.bytes sized);
        let c = Cache.create ~max_bytes:(3 * one) () in
        List.iter (check c) [ 1; 2; 3 ];
        (* touch 1: 2 becomes the least recently used *)
        check c 1;
        check c 4;
        Alcotest.(check int) "exactly one eviction" 1
          (cache_counter c "evictions");
        let hits = cache_counter c "hits" in
        List.iter (check c) [ 1; 3; 4 ];
        Alcotest.(check int) "1, 3 and 4 still hit" (hits + 3)
          (cache_counter c "hits");
        Alcotest.(check int) "three entries" 3 (Cache.entries c));
    case "verification recompiles sampled hits and passes" (fun () ->
        let c = Cache.create ~verify_every:1 () in
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo);
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo);
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo);
        Alcotest.(check int) "every hit verified" 2
          (cache_counter c "verified");
        Alcotest.(check int) "no mismatches" 0
          (cache_counter c "verify_fail");
        (* the fingerprint itself is gensym-invariant across compiles *)
        let fp () =
          Cache.fingerprint (Pipeline.compile ~file:"t.mhs" demo)
        in
        Alcotest.(check string) "stable fingerprint" (fp ()) (fp ()));
    case "a spec-profile hit returns the specialized artifact" (fun () ->
        (* the key carries the profile digest and budgets, so the cache
           can hold the post-specialization artifact: a hit must not run
           the specializer again, and a verify recompile must agree *)
        let src =
          "mySum :: Num a => a -> a\n\
           mySum n = if n == 0 then 0 else n + mySum (n - 1)\n\
           main = mySum (40 :: Int)\n"
        in
        let profile =
          (* profiled under the cache's file name: site descriptors carry
             source locations *)
          let c = Pipeline.compile ~file:"<serve>" src in
          Tc_obs.Profile.spec_of_report
            (Option.get (Pipeline.exec ~profile:true c).Pipeline.profile)
        in
        let passes = Option.get (Tc_opt.Opt.of_string "spec") in
        let run ~verify_every =
          let c = Cache.create ~verify_every () in
          let m = Metrics.create () in
          let opts =
            {
              default_opts with
              Pipeline.specialise =
                { Pipeline.default_spec with spec_profile = Some profile };
              metrics = m;
            }
          in
          let a = Cache.compile_run c ~opts ~passes ~src in
          let b = Cache.compile_run c ~opts ~passes ~src in
          Alcotest.(check int) "second call is a hit" 1
            (cache_counter c "hits");
          Alcotest.(check bool) "the first compile specialized" true
            (match a.Pipeline.spec_report with
            | Some r -> r.Tc_opt.Specialise.sr_clones > 0
            | None -> false);
          Alcotest.(check bool) "the hit carries the same report" true
            (b.Pipeline.spec_report = a.Pipeline.spec_report);
          let optimize_spans =
            List.fold_left
              (fun n (s : Metrics.span_stat) ->
                if s.Metrics.sp_name = "optimize" then n + s.Metrics.sp_count
                else n)
              0 (Metrics.spans m)
          in
          let clones = (Option.get a.Pipeline.spec_report).sr_clones in
          (c, optimize_spans, counter_of m "opt/spec/clones", clones)
        in
        let _, spans, counted, clones = run ~verify_every:0 in
        Alcotest.(check int) "one optimize span for two calls" 1 spans;
        Alcotest.(check int) "one batch of opt/spec/clones" clones counted;
        let c, spans, counted, clones = run ~verify_every:1 in
        Alcotest.(check int) "the verify recompile re-specializes" 2 spans;
        Alcotest.(check int) "two batches of opt/spec/clones" (2 * clones)
          counted;
        Alcotest.(check int) "verified" 1 (cache_counter c "verified");
        Alcotest.(check int) "no mismatch" 0 (cache_counter c "verify_fail"));
    case "compile errors propagate and are never cached" (fun () ->
        let c = Cache.create () in
        let bad = "main = notInScope" in
        let attempt () =
          match
            Cache.compile_run c ~opts:default_opts ~passes:[] ~src:bad
          with
          | _ -> Alcotest.fail "expected a compile error"
          | exception Tc_support.Diagnostic.Error _ -> ()
        in
        attempt ();
        attempt ();
        Alcotest.(check int) "both attempts missed" 2
          (cache_counter c "misses");
        Alcotest.(check int) "nothing inserted" 0 (Cache.entries c);
        (* the accumulating path *does* cache its diagnostics *)
        let ck1 = Cache.check c ~opts:default_opts ~src:bad in
        let ck2 = Cache.check c ~opts:default_opts ~src:bad in
        Alcotest.(check bool) "no artifact" true
          (ck1.Serve.schemes = None && ck2.Serve.schemes = None);
        Alcotest.(check int) "check hit" 1 (cache_counter c "hits"));
  ]

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)
(* ------------------------------------------------------------------ *)

let pool_requests n =
  Array.init n (fun i ->
      Json.to_line
        (Json.Obj
           [
             ("op", Json.Str "run");
             ("id", Json.Int i);
             ("src", Json.Str (Printf.sprintf "main = %d + %d" i i));
           ]))

let run_pool ?config ?max_restarts ?shed_grace_ms ~workers lines =
  let i = ref 0 in
  let next () =
    if !i >= Array.length lines then None
    else begin
      let l = lines.(!i) in
      incr i;
      Some l
    end
  in
  let out = ref [] in
  let config =
    match config with
    | Some c -> c
    | None -> { Serve.default_config with Serve.sleep = (fun _ -> ()) }
  in
  let summary =
    Pool.run ~workers ~config ?max_restarts ?shed_grace_ms ~next
      ~emit:(fun l -> out := l :: !out)
      ()
  in
  (summary, List.rev !out)

let response_id line =
  match Json.parse line with
  | Ok r -> Option.bind (Json.member "id" r) Json.to_int
  | Error _ -> None

let response_class line =
  match Json.parse line with
  | Ok r ->
      Option.bind (Json.member "error" r) (fun e ->
          Option.bind (Json.member "class" e) Json.to_str)
  | Error _ -> None

let class_count (m : Metrics.t) cls =
  Option.value ~default:0 (List.assoc_opt cls (Serve.failures m))

let ok_count (m : Metrics.t) = Serve.requests m - Serve.failed m

let pool_cases =
  [
    case "responses come back in request order across 4 workers" (fun () ->
        let n = 12 in
        let summary, out = run_pool ~workers:4 (pool_requests n) in
        Alcotest.(check int) "every response emitted" n (List.length out);
        Alcotest.(check (list int)) "in request order"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        Alcotest.(check int) "4 workers joined" 4 summary.Pool.workers);
    case "merged registry preserves the telemetry invariant" (fun () ->
        let n = 10 in
        let summary, _ = run_pool ~workers:3 (pool_requests n) in
        Alcotest.(check int) "stats merged across workers" n
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check int) "all ok" n (ok_count summary.Pool.metrics);
        Alcotest.(check int) "merged request counter" n
          (counter_of summary.Pool.metrics "serve/requests");
        Alcotest.(check bool) "latency counts sum to serve/requests" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "workers=1 falls back to the sequential loop" (fun () ->
        let n = 3 in
        let summary, out = run_pool ~workers:1 (pool_requests n) in
        Alcotest.(check int) "one worker" 1 summary.Pool.workers;
        Alcotest.(check (list int)) "ordered"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        Alcotest.(check bool) "invariant" true
          (Loadgen.invariant_holds summary.Pool.metrics));
  ]

(* ------------------------------------------------------------------ *)
(* Supervision: crashed workers, restart budgets, shedding.            *)
(* ------------------------------------------------------------------ *)

module Inject = Tc_resilience.Inject

let with_inject plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let supervision_cases =
  [
    case "a crashed worker answers worker-crash and the pool recovers"
      (fun () ->
        (* rate 1 + max_faults 3: exactly the first three dequeues crash
           their worker domain, deterministically *)
        let n = 12 in
        let summary, out =
          with_inject
            (Inject.plan ~rate:1.0 ~points:[ Inject.Worker_crash ]
               ~max_faults:3 ())
            (fun () -> run_pool ~workers:4 (pool_requests n))
        in
        Alcotest.(check int) "every request answered" n (List.length out);
        Alcotest.(check (list int)) "in request order"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        let crashed =
          List.filter (fun l -> response_class l = Some "worker-crash") out
        in
        Alcotest.(check int) "three requests died with their workers" 3
          (List.length crashed);
        Alcotest.(check int) "three respawns" 3 summary.Pool.restarts;
        Alcotest.(check int) "restarts exported as a counter" 3
          (counter_of summary.Pool.metrics "scale/pool/restarts");
        (* the dead incarnations' accounting still reaches the totals *)
        Alcotest.(check int) "crashes tallied by class" 3
          (class_count summary.Pool.metrics "worker-crash");
        Alcotest.(check int) "stats count every request" n
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check int) "the rest succeeded" (n - 3)
          (ok_count summary.Pool.metrics);
        Alcotest.(check int) "merged request counter" n
          (counter_of summary.Pool.metrics "serve/requests");
        Alcotest.(check bool)
          "telemetry invariant holds with synthetic responses" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "an exhausted restart budget degrades to a lame-duck drainer"
      (fun () ->
        (* every dequeue crashes; with a budget of 1 the pool shrinks to
           nothing and the last dying worker must still drain the rest *)
        let n = 8 in
        let summary, out =
          with_inject
            (Inject.plan ~rate:1.0 ~points:[ Inject.Worker_crash ] ())
            (fun () -> run_pool ~workers:2 ~max_restarts:1 (pool_requests n))
        in
        Alcotest.(check int) "no request lost" n (List.length out);
        Alcotest.(check (list int)) "order survives total worker loss"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        Alcotest.(check bool) "every response is worker-crash" true
          (List.for_all (fun l -> response_class l = Some "worker-crash") out);
        Alcotest.(check int) "budget respected" 1 summary.Pool.restarts;
        Alcotest.(check bool) "invariant still holds" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "queue age past the deadline sheds instead of compiling"
      (fun () ->
        (* a fake clock advancing 50ms per reading makes every request's
           measured queue age exceed a 10ms deadline, deterministically *)
        let m = Mutex.create () in
        let now = ref 0. in
        let clock () =
          Mutex.protect m (fun () ->
              now := !now +. 0.05;
              !now)
        in
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            clock;
            default_deadline_ms = 10;
          }
        in
        let n = 6 in
        let summary, out = run_pool ~config ~workers:2 (pool_requests n) in
        Alcotest.(check int) "every request answered" n (List.length out);
        Alcotest.(check (list int)) "in order"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        Alcotest.(check bool) "every response shed" true
          (List.for_all (fun l -> response_class l = Some "shed") out);
        Alcotest.(check int) "shed tallied by class" n
          (class_count summary.Pool.metrics "shed");
        Alcotest.(check bool) "shed responses keep the invariant" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "a request's own deadline_ms field overrides the default"
      (fun () ->
        let t = Serve.create ~config:Serve.default_config () in
        let req deadline =
          Json.to_line
            (Json.Obj
               [
                 ("op", Json.Str "ping");
                 ("id", Json.Int 1);
                 ("deadline_ms", Json.Int deadline);
               ])
        in
        (* 50ms in queue vs a 10ms per-request deadline: shed *)
        Alcotest.(check (option string)) "aged out" (Some "shed")
          (response_class (Serve.handle_line ~queued_us:50_000 t (req 10)));
        (* deadline 0 disables shedding for that request *)
        Alcotest.(check bool) "no deadline, no shed" true
          (Helpers.contains ~needle:"\"ok\":true"
             (Serve.handle_line ~queued_us:50_000 t (req 0)));
        Alcotest.(check bool) "shed responses are counted" true
          (Loadgen.invariant_holds (Serve.metrics t)));
    case "admission shedding accounts every shed exactly once" (fun () ->
        (* shed_grace_ms = 0: any wake-up while the queue is still full
           sheds at admission. Whether that race fires depends on
           scheduling, so assert the accounting identities rather than a
           specific shed count. *)
        let n = 16 in
        let summary, out =
          run_pool ~workers:2 ~shed_grace_ms:0. (pool_requests n)
        in
        Alcotest.(check int) "every request answered" n (List.length out);
        Alcotest.(check (list int)) "in order"
          (List.init n Fun.id)
          (List.filter_map response_id out);
        let shed_responses =
          List.length
            (List.filter (fun l -> response_class l = Some "shed") out)
        in
        Alcotest.(check int) "stats agree with responses" shed_responses
          (class_count summary.Pool.metrics "shed");
        Alcotest.(check int) "pool counter agrees" shed_responses
          (counter_of summary.Pool.metrics "scale/pool/shed");
        Alcotest.(check bool) "invariant holds" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "in-band metrics requests see the pool registry" (fun () ->
        let lines =
          Array.append (pool_requests 3)
            [| Json.to_line (Json.Obj [ ("op", Json.Str "metrics") ]) |]
        in
        let _, out = run_pool ~workers:2 lines in
        Alcotest.(check int) "four responses" 4 (List.length out);
        Alcotest.(check bool) "pool gauges visible in-band" true
          (List.exists
             (fun l -> Helpers.contains ~needle:"scale/pool/" l)
             out));
  ]

(* ------------------------------------------------------------------ *)
(* The persistent cache tier.                                          *)
(* ------------------------------------------------------------------ *)

let tmpdir () =
  let d = Filename.temp_file "mhc_persist" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Sys.rmdir dir with Sys_error _ -> ()

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"entry-" f)

let persist_cases =
  [
    case "a zero budget keeps nothing in memory; the disk tier serves"
      (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let check c =
          List.iter
            (fun i ->
              ignore
                (Cache.check c ~opts:default_opts
                   ~src:(Printf.sprintf "main = %d" i)))
            [ 1; 2; 3; 4; 5 ]
        in
        let empty what c =
          Alcotest.(check int) (what ^ ": no entries") 0 (Cache.entries c);
          Alcotest.(check int) (what ^ ": no bytes") 0 (Cache.bytes c);
          Alcotest.(check int) (what ^ ": no memory hits") 0
            (cache_counter c "hits");
          (* nothing is sized and linked only to be evicted *)
          Alcotest.(check int) (what ^ ": no inserts") 0
            (cache_counter c "inserts");
          Alcotest.(check int) (what ^ ": no evictions") 0
            (cache_counter c "evictions")
        in
        let a = Cache.create ~max_bytes:0 ~dir () in
        check a;
        check a;
        empty "first process" a;
        Alcotest.(check int) "each program written once" 5
          (cache_counter a "persist/writes");
        Cache.close a;
        let b = Cache.create ~max_bytes:0 ~dir () in
        check b;
        empty "restarted" b;
        Alcotest.(check int) "the restart is answered from disk" 5
          (cache_counter b "persist/hits"));
    case "entries under no writer file, or another executable's, are wiped"
      (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let writer = Filename.concat dir "writer" in
        let reopen what ~wiped ~hits =
          let c = Cache.create ~dir () in
          Alcotest.(check int) (what ^ ": wiped") wiped
            (cache_counter c "persist/wiped");
          ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo);
          Alcotest.(check int) (what ^ ": disk hits") hits
            (cache_counter c "persist/hits");
          Alcotest.(check bool) (what ^ ": writer file") true
            (Sys.file_exists writer);
          Cache.close c
        in
        reopen "first open" ~wiped:0 ~hits:0;
        Sys.remove writer;
        reopen "no writer file" ~wiped:1 ~hits:0;
        Out_channel.with_open_bin writer (fun oc ->
            output_string oc
              "mhc-persist 1 another-exe d41d8cd98f00b204e9800998ecf8427e 0\n");
        reopen "another executable's" ~wiped:1 ~hits:0;
        reopen "our own" ~wiped:0 ~hits:1);
    case "a warm restart serves from disk with the front end skipped"
      (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let a = Cache.create ~dir () in
        ignore (Cache.compile_run a ~opts:default_opts ~passes:[] ~src:demo);
        Alcotest.(check int) "written through" 1
          (cache_counter a "persist/writes");
        Cache.close a;
        (* a fresh cache over the same directory: the restarted server *)
        let b = Cache.create ~dir () in
        (* the restarted cache keeps the directory it wrote, whose one
           file besides the entries and the lock names the writer *)
        Alcotest.(check bool) "writer file, no intern table" true
          (Sys.file_exists (Filename.concat dir "writer")
           && not (Sys.file_exists (Filename.concat dir "intern.bin")));
        Alcotest.(check int) "directory kept" 0
          (cache_counter b "persist/wiped");
        ignore
          (Cache.compile_run b ~opts:default_opts ~passes:[]
             ~src:"main = 7 * 6");
        Alcotest.(check int) "a new program compiles on the snapshot" 1
          (cache_counter b "misses");
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            hooks =
              {
                Serve.no_hooks with
                Serve.compile =
                  Some
                    (fun ~opts ~passes ~src ->
                      Cache.compile_run b ~opts ~passes ~src);
              };
          }
        in
        let t = Serve.create ~config () in
        let req =
          Json.to_line
            (Json.Obj [ ("op", Json.Str "run"); ("src", Json.Str demo) ])
        in
        let resp = Serve.handle_line t req in
        Alcotest.(check bool) "served ok from disk" true
          (Helpers.contains ~needle:"\"ok\":true" resp);
        Alcotest.(check int) "disk hit" 1 (cache_counter b "persist/hits");
        Alcotest.(check int)
          "no compile span at all: the front end never ran" 0
          (List.length
             (List.filter
                (fun (s : Metrics.span_stat) -> s.Metrics.sp_name = "compile")
                (Metrics.spans (Serve.metrics t)))));
    case "a corrupt entry is healed on read, never an exception" (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let a = Cache.create ~dir () in
        ignore (Cache.compile_run a ~opts:default_opts ~passes:[] ~src:demo);
        Cache.close a;
        (* tear the entry in half, as a crashed non-atomic writer would *)
        (match entry_files dir with
        | [ f ] ->
            let path = Filename.concat dir f in
            let bytes = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (String.sub bytes 0 (String.length bytes / 2)))
        | l -> Alcotest.failf "expected one entry file, found %d"
                 (List.length l));
        let _, _, corrupt = Tc_scale.Persist.scan ~dir in
        Alcotest.(check int) "scan flags the torn entry" 1 corrupt;
        let b = Cache.create ~dir () in
        let art =
          Cache.compile_run b ~opts:default_opts ~passes:[] ~src:demo
        in
        Alcotest.(check int) "detected and dropped" 1
          (cache_counter b "persist/corrupt");
        Alcotest.(check int) "recompiled fresh" 1 (cache_counter b "misses");
        let exec =
          (Pipeline.exec ~budget:(Pipeline.Budget.fuel 1_000_000) art)
            .Pipeline.rendered
        in
        Alcotest.(check string) "fresh compile answers" "42" exec;
        Cache.close b;
        (* the heal rewrote the entry: a third start hits clean *)
        let c = Cache.create ~dir () in
        ignore (Cache.compile_run c ~opts:default_opts ~passes:[] ~src:demo);
        Alcotest.(check int) "healed entry hits" 1
          (cache_counter c "persist/hits");
        Alcotest.(check int) "nothing corrupt remains" 0
          (cache_counter c "persist/corrupt");
        Cache.close c);
    case "an injected torn write is a miss on restart, then healed"
      (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let a = Cache.create ~dir () in
        with_inject
          (Inject.plan ~rate:1.0 ~points:[ Inject.Cache_write ] ())
          (fun () ->
            ignore
              (Cache.compile_run a ~opts:default_opts ~passes:[] ~src:demo));
        Cache.close a;
        (* the torn bytes are on disk but can never validate *)
        let _, _, corrupt = Tc_scale.Persist.scan ~dir in
        Alcotest.(check int) "torn entry present, invalid" 1 corrupt;
        let b = Cache.create ~dir () in
        ignore (Cache.compile_run b ~opts:default_opts ~passes:[] ~src:demo);
        Alcotest.(check int) "torn entry dropped on read" 1
          (cache_counter b "persist/corrupt");
        Alcotest.(check int) "compiled fresh and rewrote" 1
          (cache_counter b "persist/writes");
        Cache.close b);
    case "an injected read fault heals like real corruption" (fun () ->
        let dir = tmpdir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let a = Cache.create ~dir () in
        ignore (Cache.compile_run a ~opts:default_opts ~passes:[] ~src:demo);
        Cache.close a;
        let b = Cache.create ~dir () in
        with_inject
          (Inject.plan ~rate:1.0 ~points:[ Inject.Cache_read ] ())
          (fun () ->
            ignore
              (Cache.compile_run b ~opts:default_opts ~passes:[] ~src:demo));
        Alcotest.(check int) "read fault counted as corruption" 1
          (cache_counter b "persist/corrupt");
        Alcotest.(check int) "request still served by recompiling" 1
          (cache_counter b "misses");
        Cache.close b);
  ]

(* ------------------------------------------------------------------ *)
(* Oversized lines.                                                    *)
(* ------------------------------------------------------------------ *)

let oversize_cases =
  [
    case "a line over the cap answers bad-request (op oversized)"
      (fun () ->
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            max_line_bytes = 64;
          }
        in
        let t = Serve.create ~config () in
        let big =
          Json.to_line
            (Json.Obj
               [
                 ("op", Json.Str "run");
                 ("src", Json.Str (String.make 200 'x'));
               ])
        in
        let resp = Serve.handle_line t big in
        (match Json.parse resp with
        | Error m -> Alcotest.failf "unparseable response: %s" m
        | Ok r ->
            Alcotest.(check bool) "not ok" true
              (Json.member "ok" r = Some (Json.Bool false));
            Alcotest.(check bool) "op oversized" true
              (Json.member "op" r = Some (Json.Str "oversized")));
        Alcotest.(check int) "counted as a request" 1
          (counter_of (Serve.metrics t) "serve/requests");
        (* a line exactly at the cap still parses *)
        let small = Json.to_line (Json.Obj [ ("op", Json.Str "ping") ]) in
        Alcotest.(check bool) "under the cap is served" true
          (Helpers.contains ~needle:"\"ok\":true"
             (Serve.handle_line t small)));
    case "bounded_next buffers at most max_bytes + 1" (fun () ->
        let path = Filename.temp_file "mhc_scale" ".ndjson" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.make 1000 'x');
            Out_channel.output_string oc "\nshort\n");
        let ic = In_channel.open_bin path in
        Fun.protect
          ~finally:(fun () ->
            In_channel.close ic;
            Sys.remove path)
          (fun () ->
            let next = Serve.bounded_next ~max_bytes:8 ic in
            (match next () with
            | Some l ->
                Alcotest.(check int) "truncated to cap + 1" 9
                  (String.length l)
            | None -> Alcotest.fail "expected the oversized line");
            Alcotest.(check (option string))
              "following line intact" (Some "short") (next ());
            Alcotest.(check (option string)) "then EOF" None (next ())));
  ]

(* ------------------------------------------------------------------ *)
(* Load generator.                                                     *)
(* ------------------------------------------------------------------ *)

let loadgen_cases =
  [
    case "a small run reports sane phases and holds the invariant"
      (fun () ->
        (* one worker: deterministic cache arithmetic (with more workers,
           simultaneous requests for a not-yet-inserted key can each
           miss — first-writer-wins racing is by design) *)
        let r = Loadgen.run ~clients:2 ~requests:6 ~workers:1 () in
        Alcotest.(check int) "cold all ok" 6 r.Loadgen.cold.Loadgen.ph_ok;
        Alcotest.(check int) "hot all ok" 6 r.Loadgen.hot.Loadgen.ph_ok;
        Alcotest.(check int) "hot phase: one warm-up miss per client" 4
          r.Loadgen.cache_hits;
        Alcotest.(check int) "misses: cold + warm-up" 8
          r.Loadgen.cache_misses;
        Alcotest.(check bool) "invariant held" true r.Loadgen.invariant_ok;
        (* trajectory rows parse and carry the gated metrics *)
        let dir = Filename.temp_file "mhc_bench" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let path = Loadgen.write_bench_rows ~dir r in
        let rows = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        Sys.rmdir dir;
        match Json.parse rows with
        | Error m -> Alcotest.failf "BENCH_SERVE.json unparseable: %s" m
        | Ok (Json.List items) ->
            Alcotest.(check int) "nine rows" 9 (List.length items);
            Alcotest.(check bool) "shed row present for --slo bounds" true
              (List.exists
                 (fun row ->
                   Json.member "metric" row = Some (Json.Str "shed"))
                 items);
            Alcotest.(check bool) "hot_speedup row present" true
              (List.exists
                 (fun row ->
                   Json.member "metric" row = Some (Json.Str "hot_speedup"))
                 items)
        | Ok _ -> Alcotest.fail "expected a JSON array");
    case "quantiles are nearest rank over the recorded samples" (fun () ->
        let lat = [| 40; -1; 10; 30; 20 |] in
        Alcotest.(check int) "p50 of four is the second" 20
          (Loadgen.quantile_us lat 50);
        Alcotest.(check int) "p99 is the largest" 40
          (Loadgen.quantile_us lat 99);
        Alcotest.(check int) "p1 is the smallest" 10
          (Loadgen.quantile_us lat 1);
        Alcotest.(check int) "no samples" 0 (Loadgen.quantile_us [| -1 |] 50));
  ]

(* ------------------------------------------------------------------ *)
(* One live view: every reading of a pool folds every registry.        *)
(* ------------------------------------------------------------------ *)

(* Feed [batches] through a pool, each batch only once every response
   to the earlier ones is out — so the first request of a batch is
   handled at quiescence. Returns the summary, the responses and the
   out-of-band lines. *)
let run_batches ?(config = { Serve.default_config with Serve.sleep = ignore })
    ~workers batches =
  let m = Mutex.create () and answered = Condition.create () in
  let emitted = ref 0 and fed = ref 0 in
  let out = ref [] and oob = ref [] in
  let pending = ref batches and current = ref [] in
  let rec next () =
    match !current with
    | line :: rest ->
        current := rest;
        incr fed;
        Some line
    | [] -> (
        match !pending with
        | [] -> None
        | batch :: rest ->
            Mutex.protect m (fun () ->
                while !emitted < !fed do
                  Condition.wait answered m
                done);
            pending := rest;
            current := batch;
            next ())
  in
  let emit line =
    Mutex.protect m (fun () ->
        out := line :: !out;
        incr emitted;
        Condition.broadcast answered)
  in
  let emit_oob line = Mutex.protect m (fun () -> oob := line :: !oob) in
  let summary = Pool.run ~workers ~config ~next ~emit ~emit_oob () in
  (summary, List.rev !out, List.rev !oob)

let metrics_req = Json.to_line (Json.Obj [ ("op", Json.Str "metrics") ])

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "no %S field" name

let ints = function
  | Json.Obj kvs ->
      List.map
        (fun (k, v) ->
          (k, match v with Json.Int n -> n | _ -> Alcotest.failf "%s" k))
        kvs
  | _ -> Alcotest.fail "not an object"

(* The serve telemetry invariant on one rendered snapshot. *)
let snapshot_invariant (snap : Json.t) =
  let requests =
    Option.value ~default:0
      (List.assoc_opt "serve/requests" (ints (field "counters" snap)))
  in
  let latency =
    match field "histograms" snap with
    | Json.Obj hs ->
        List.fold_left
          (fun n (name, h) ->
            if String.starts_with ~prefix:"serve/latency/" name then
              n + Option.value ~default:0 (Option.bind (Json.member "count" h) Json.to_int)
            else n)
          0 hs
    | _ -> Alcotest.fail "histograms not an object"
  in
  (requests, latency)

let run_src i =
  Json.to_line
    (Json.Obj
       [
         ("op", Json.Str "run");
         ("backend", Json.Str (if i mod 2 = 0 then "tree" else "vm"));
         ( "src",
           Json.Str
             (Printf.sprintf
                "sumTo :: Int -> Int\n\
                 sumTo n = if n == 0 then 0 else n + sumTo (n - 1)\n\
                 main = sumTo %d" (200 + i)) );
       ])

let decode line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "not JSON (%s): %s" e line

let view_cases =
  [
    case "every snapshot holds the invariant while 4 workers are busy"
      (fun () ->
        (* runs and checks with metrics requests among them, fed without
           waiting, and a snapshot line after every 5th response; then,
           at quiescence, one more metrics request *)
        let busy =
          List.init 80 (fun i ->
              if i mod 4 = 3 then metrics_req
              else if i mod 3 = 0 then
                Json.to_line
                  (Json.Obj
                     [ ("op", Json.Str "check");
                       ("src", Json.Str (Printf.sprintf "g%d x = x * %d" i i)) ])
              else run_src i)
        in
        let config =
          { Serve.default_config with Serve.sleep = ignore; snapshot_every = 5 }
        in
        let _, out, oob =
          run_batches ~config ~workers:4 [ busy; [ metrics_req ] ]
        in
        let in_band =
          List.filter_map
            (fun l -> Json.member "metrics" (decode l))
            out
        in
        Alcotest.(check int) "21 in-band snapshots" 21 (List.length in_band);
        Alcotest.(check int) "16 out-of-band snapshots" 16 (List.length oob);
        List.iter
          (fun snap ->
            let requests, latency = snapshot_invariant snap in
            Alcotest.(check int) "latency counts sum to serve/requests"
              requests latency)
          in_band;
        List.iter
          (fun line ->
            let e = decode line in
            let after =
              Option.get (Option.bind (Json.member "after_requests" e) Json.to_int)
            in
            let requests, latency = snapshot_invariant (field "metrics" e) in
            Alcotest.(check int) "out-of-band: latency sums to requests"
              requests latency;
            Alcotest.(check bool)
              (Printf.sprintf "the line after response %d sees them all" after)
              true (requests >= after))
          oob;
        let last = List.nth in_band 20 in
        Alcotest.(check int) "at quiescence every worker's requests count" 80
          (fst (snapshot_invariant last)));
    case "stats.counters is the sum of every run's counters across workers"
      (fun () ->
        let programs =
          [ "primes"; "matrix"; "set"; "calculator" ]
          |> List.map (fun p ->
                 In_channel.with_open_bin
                   (Printf.sprintf "../examples/programs/%s.mhs" p)
                   In_channel.input_all)
        in
        let runs =
          List.concat_map
            (fun src ->
              List.map
                (fun backend ->
                  Json.to_line
                    (Json.Obj
                       [ ("op", Json.Str "run"); ("backend", Json.Str backend);
                         ("src", Json.Str src) ]))
                [ "tree"; "vm"; "tree"; "vm" ])
            programs
        in
        let stats_req = Json.to_line (Json.Obj [ ("op", Json.Str "stats") ]) in
        let _, out, _ = run_batches ~workers:2 [ runs; [ stats_req ] ] in
        let responses = List.map decode out in
        let sum = Hashtbl.create 16 in
        List.iter
          (fun r ->
            match Json.member "counters" r with
            | Some c ->
                List.iter
                  (fun (k, v) ->
                    Hashtbl.replace sum k
                      (v + Option.value ~default:0 (Hashtbl.find_opt sum k)))
                  (ints c)
            | None -> ())
          responses;
        let stats = field "stats" (List.nth responses (List.length runs)) in
        let reported = ints (field "counters" stats) in
        Alcotest.(check int) "every field" 9 (List.length reported);
        List.iter
          (fun (k, v) ->
            Alcotest.(check int) ("stats.counters." ^ k)
              (Option.value ~default:0 (Hashtbl.find_opt sum k))
              v)
          reported;
        Alcotest.(check bool) "the runs selected" true
          (List.assoc "selections" reported > 0);
        Alcotest.(check bool) "memory gauges shown" true
          (List.mem_assoc "ident/interned" (ints (field "memory" stats))));
  ]

let tests =
  [
    ("scale cache", cache_cases);
    ("scale pool", pool_cases);
    ("scale supervision", supervision_cases);
    ("scale persist", persist_cases);
    ("scale oversize", oversize_cases);
    ("scale loadgen", loadgen_cases);
    ("scale live view", view_cases);
  ]
