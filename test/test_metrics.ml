(** The metrics registry and its consumers: histogram bucketing, span
    nesting, snapshot determinism, the allocation-free disabled path,
    pipeline phase spans, and serve request telemetry.

    - Bucket boundaries are total over all of [int]: 0 and negatives in
      bucket 0, powers of two open a new bucket, [max_int] lands in the
      clamped last bucket, and [merge_hist] equals observing both
      streams into one histogram.
    - Spans build slash-separated nesting paths and list parents before
      children, deterministically across runs.
    - Snapshots round-trip through {!Tc_obs.Json} and are byte-identical
      across runs under [~stable:true].
    - Serve labels a latency histogram per op and per failure class, and
      in every snapshot the per-op latency counts sum exactly to the
      [serve/requests] counter — including snapshots taken mid-stream by
      the [metrics] op. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Pool = Tc_scale.Pool
module Inject = Tc_resilience.Inject
module Metrics = Tc_obs.Metrics
module Span = Tc_obs.Span
module Json = Tc_obs.Json

let demo = "double :: Num a => a -> a\ndouble x = x + x\nmain = double 21\n"

(* ------------------------------------------------------------------ *)
(* Instruments.                                                        *)
(* ------------------------------------------------------------------ *)

let instrument_cases =
  [
    case "counters and gauges accumulate through shared handles" (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m "events" in
        Metrics.incr c;
        Metrics.add c 4;
        (* same name, same instrument *)
        Metrics.incr (Metrics.counter m "events");
        Alcotest.(check int) "counter" 6 (Metrics.counter_value c);
        let g = Metrics.gauge m "depth" in
        Metrics.set g 3;
        Metrics.set (Metrics.gauge m "depth") 7;
        Alcotest.(check int) "gauge last-write-wins" 7 (Metrics.gauge_value g);
        Alcotest.(check (list (pair string int)))
          "listing sorted" [ ("events", 6) ] (Metrics.counters m));
    case "histogram bucket boundaries: 0, 1, powers of two, max_int"
      (fun () ->
        Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_of 0);
        Alcotest.(check int) "negative -> bucket 0" 0 (Metrics.bucket_of (-5));
        Alcotest.(check int) "1 -> bucket 1" 1 (Metrics.bucket_of 1);
        Alcotest.(check int) "2 opens bucket 2" 2 (Metrics.bucket_of 2);
        Alcotest.(check int) "3 stays in bucket 2" 2 (Metrics.bucket_of 3);
        Alcotest.(check int) "1000 -> bucket 10" 10 (Metrics.bucket_of 1000);
        Alcotest.(check int)
          "max_int -> last bucket" 62
          (Metrics.bucket_of max_int);
        Alcotest.(check int) "bucket_hi 0" 0 (Metrics.bucket_hi 0);
        Alcotest.(check int) "bucket_hi 1" 1 (Metrics.bucket_hi 1);
        Alcotest.(check int) "bucket_hi 10" 1023 (Metrics.bucket_hi 10);
        Alcotest.(check int)
          "last bucket clamps at max_int" max_int (Metrics.bucket_hi 62);
        (* bucket_of v is the smallest i with v <= bucket_hi i *)
        List.iter
          (fun v ->
            let i = Metrics.bucket_of v in
            Alcotest.(check bool)
              (Printf.sprintf "%d <= hi(bucket %d)" v i)
              true
              (v <= Metrics.bucket_hi i);
            if i > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "%d > hi(bucket %d)" v (i - 1))
                true
                (v > Metrics.bucket_hi (i - 1)))
          [ 0; 1; 2; 3; 4; 7; 8; 1000; 1023; 1024; 1 lsl 40; max_int ]);
    case "histogram quantiles are bucket upper bounds" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram m "h" in
        Alcotest.(check int) "empty quantile" 0 (Metrics.quantile h 0.5);
        Metrics.observe h 0;
        Metrics.observe h 1;
        Metrics.observe h max_int;
        Alcotest.(check int) "count" 3 (Metrics.hist_count h);
        Alcotest.(check int) "sum saturates" max_int (Metrics.hist_sum h);
        Alcotest.(check int) "p50 = hi of middle value" 1
          (Metrics.quantile h 0.5);
        Alcotest.(check int) "p100" max_int (Metrics.quantile h 1.0);
        let u = Metrics.histogram m "u" in
        for _ = 1 to 4 do Metrics.observe u 1000 done;
        Alcotest.(check int) "uniform p50 overestimates by < 2x" 1023
          (Metrics.quantile u 0.5));
    case "merge equals observing both streams into one histogram"
      (fun () ->
        let m = Metrics.create () in
        let a = Metrics.histogram m "a"
        and b = Metrics.histogram m "b"
        and both = Metrics.histogram m "both" in
        let xs = [ 1; 5; 9 ] and ys = [ 0; 1000; max_int ] in
        List.iter (Metrics.observe a) xs;
        List.iter (Metrics.observe b) ys;
        List.iter (Metrics.observe both) (xs @ ys);
        let before = Metrics.hist_count a in
        Metrics.merge_hist ~into:a b;
        Alcotest.(check bool) "merge is monotone" true
          (Metrics.hist_count a > before);
        Alcotest.(check int) "count" (Metrics.hist_count both)
          (Metrics.hist_count a);
        Alcotest.(check int) "sum" (Metrics.hist_sum both)
          (Metrics.hist_sum a);
        List.iter
          (fun q ->
            Alcotest.(check int)
              (Printf.sprintf "q=%.2f" q)
              (Metrics.quantile both q) (Metrics.quantile a q))
          [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ]);
    case "disabled registry is inert and allocation-free" (fun () ->
        let m = Metrics.disabled in
        let c = Metrics.counter m "c"
        and g = Metrics.gauge m "g"
        and h = Metrics.histogram m "h" in
        let noop () = () in
        let delta f =
          let w0 = Gc.minor_words () in
          f ();
          Gc.minor_words () -. w0
        in
        let bump () =
          for _ = 1 to 10_000 do
            Metrics.incr c;
            Metrics.add c 2;
            Metrics.set g 5;
            Metrics.observe h 12345;
            Span.wrap m "noop" noop
          done
        in
        (* both measurements carry the same fixed boxing overhead from
           [Gc.minor_words] itself, so equal deltas mean the bumps
           allocated nothing *)
        let base = delta noop in
        let d = delta bump in
        Alcotest.(check (float 0.)) "no allocation across 50k bumps" base d;
        Alcotest.(check (list (pair string int))) "nothing registered" []
          (Metrics.counters m);
        Alcotest.(check bool) "snapshot is empty" true
          (Json.member "spans" (Metrics.snapshot m) = Some (Json.List [])));
  ]

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)
(* ------------------------------------------------------------------ *)

let span_names m = List.map (fun s -> s.Metrics.sp_name) (Metrics.spans m)

let span_cases =
  [
    case "nesting builds slash paths, parents listed before children"
      (fun () ->
        let m = Metrics.create () in
        Span.wrap m "a" (fun () ->
            Span.wrap m "b" ignore;
            Span.wrap m "c" ignore);
        Span.wrap m "a" (fun () ->
            Span.wrap m "b" ignore);
        Alcotest.(check (list string))
          "entry order" [ "a"; "a/b"; "a/c" ] (span_names m);
        let counts =
          List.map (fun s -> s.Metrics.sp_count) (Metrics.spans m)
        in
        Alcotest.(check (list int)) "counts accumulate" [ 2; 2; 1 ] counts);
    case "a span records even when its body raises" (fun () ->
        let m = Metrics.create () in
        (try
           Span.wrap m "boom" (fun () -> failwith "no")
         with Failure _ -> ());
        Span.wrap m "after" ignore;
        Alcotest.(check (list string))
          "recorded and stack unwound" [ "boom"; "after" ] (span_names m);
        match Metrics.spans m with
        | b :: _ -> Alcotest.(check int) "count" 1 b.Metrics.sp_count
        | [] -> Alcotest.fail "no spans");
    case "every pipeline phase appears as a span" (fun () ->
        let m = Metrics.create () in
        let opts = { Pipeline.default_options with Pipeline.metrics = m } in
        let c = Pipeline.compile ~opts ~file:"metrics.mhs" demo in
        let c = Pipeline.optimize Tc_opt.Opt.all c in
        ignore (Pipeline.exec c);
        ignore (Pipeline.exec ~backend:`Vm c);
        let names = span_names m in
        List.iter
          (fun n ->
            Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
          [
            "compile"; "compile/lex"; "compile/layout"; "compile/parse";
            "compile/desugar"; "compile/infer"; "compile/methods";
            "compile/dicts"; "compile/resolve"; "compile/normalize";
            "optimize"; "optimize/simplify"; "optimize/specialise";
            "exec"; "exec/eval"; "exec/lower";
          ];
        let index n =
          let rec go i = function
            | [] -> Alcotest.failf "span %s missing" n
            | x :: _ when x = n -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 names
        in
        Alcotest.(check bool) "compile precedes its phases" true
          (index "compile" < index "compile/infer");
        Alcotest.(check bool) "exec precedes eval" true
          (index "exec" < index "exec/eval");
        (* both backends fold into the same aggregated span *)
        let eval = List.find (fun s -> s.Metrics.sp_name = "exec/eval")
            (Metrics.spans m) in
        Alcotest.(check int) "eval ran twice" 2 eval.Metrics.sp_count);
    case "exec/eval covers forcing the value" (fun () ->
        (* lazy evaluation stops at weak head normal form; rendering
           forces the rest, and that work is evaluation *)
        let m = Metrics.create () in
        let opts =
          { Pipeline.default_options with
            Pipeline.metrics = m; strategy = Pipeline.Dicts_flat }
        in
        let src =
          In_channel.with_open_bin "../examples/programs/nqueens.mhs"
            In_channel.input_all
        in
        ignore
          (Pipeline.exec ~backend:`Vm
             (Pipeline.compile ~opts ~file:"nqueens.mhs" src));
        let ns name =
          match
            List.find_opt (fun s -> s.Metrics.sp_name = name) (Metrics.spans m)
          with
          | Some s -> s.Metrics.sp_ns
          | None -> Alcotest.failf "span %s missing" name
        in
        let exec = ns "exec" and eval = ns "exec/eval" in
        Alcotest.(check bool)
          (Printf.sprintf "exec/eval %d of %d ns" eval exec)
          true
          (2 * eval >= exec));
    case "span order and stable snapshots are deterministic across runs"
      (fun () ->
        let shot () =
          let m = Metrics.create () in
          let opts = { Pipeline.default_options with Pipeline.metrics = m } in
          ignore
            (Pipeline.exec (Pipeline.compile ~opts ~file:"metrics.mhs" demo));
          (span_names m, Json.to_string (Metrics.snapshot ~stable:true m))
        in
        let names1, stable1 = shot () in
        let names2, stable2 = shot () in
        Alcotest.(check (list string)) "same span order" names1 names2;
        Alcotest.(check string) "byte-identical stable snapshot" stable1
          stable2);
  ]

(* ------------------------------------------------------------------ *)
(* Snapshots and JSON.                                                 *)
(* ------------------------------------------------------------------ *)

let json_cases =
  [
    case "snapshot round-trips through Tc_obs.Json" (fun () ->
        let m = Metrics.create () in
        Metrics.add (Metrics.counter m "reqs") 17;
        Metrics.set (Metrics.gauge m "depth") 3;
        let h = Metrics.histogram m "lat" in
        List.iter (Metrics.observe h) [ 0; 1; 7; 1000; max_int ];
        Span.wrap m "outer" (fun () ->
            Span.wrap m "inner" ignore);
        let snap = Metrics.snapshot m in
        (match Json.parse (Json.to_string snap) with
        | Ok v -> Alcotest.(check bool) "pretty form" true (v = snap)
        | Error e -> Alcotest.failf "parse failed: %s" e);
        match Json.parse (Json.to_line snap) with
        | Ok v -> Alcotest.(check bool) "line form" true (v = snap)
        | Error e -> Alcotest.failf "parse failed: %s" e);
    case "stable snapshots redact machine-dependent detail" (fun () ->
        let m = Metrics.create () in
        Metrics.observe (Metrics.histogram m "lat") 1234;
        Span.wrap m "work" ignore;
        let get path j =
          List.fold_left
            (fun acc k ->
              match acc with
              | Some o -> Json.member k o
              | None -> None)
            (Some j) path
        in
        let full = Metrics.snapshot m in
        Alcotest.(check bool) "full has sum" true
          (get [ "histograms"; "lat"; "sum" ] full <> None);
        let stable = Metrics.snapshot ~stable:true m in
        Alcotest.(check bool) "stable drops sum" true
          (get [ "histograms"; "lat"; "sum" ] stable = None);
        Alcotest.(check bool) "stable keeps count" true
          (get [ "histograms"; "lat"; "count" ] stable = Some (Json.Int 1));
        match get [ "spans" ] stable with
        | Some (Json.List [ Json.Obj fields ]) ->
            Alcotest.(check bool) "span keeps no duration" true
              (not (List.mem_assoc "total_ns" fields))
        | _ -> Alcotest.fail "expected one span");
  ]

(* ------------------------------------------------------------------ *)
(* Serve telemetry.                                                    *)
(* ------------------------------------------------------------------ *)

let test_config = { Serve.default_config with Serve.sleep = (fun _ -> ()) }

let with_plan plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let decode line =
  match Json.parse line with
  | Ok v -> v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let field name resp =
  match Json.member name resp with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_line resp)

let error_class resp =
  match Json.member "class" (field "error" resp) with
  | Some (Json.Str c) -> c
  | _ -> Alcotest.failf "no error class: %s" (Json.to_line resp)

let req fields = Json.to_line (Json.Obj fields)

let run_req ?(extra = []) src =
  req ([ ("op", Json.Str "run"); ("src", Json.Str src) ] @ extra)

let latency_total m =
  List.fold_left
    (fun acc (name, h) ->
      if String.starts_with ~prefix:"serve/latency/" name then
        acc + Metrics.hist_count h
      else acc)
    0 (Metrics.histograms m)

(* A clock that advances exactly one millisecond per reading: every
   request takes precisely 1000us of "time", so latency quantiles are
   exact constants. *)
let ticking () =
  let n = ref 0 in
  fun () ->
    incr n;
    float_of_int !n *. 0.001

let serve_cases =
  [
    case "every failure class gets its own latency histogram" (fun () ->
        let t = Serve.create ~config:test_config () in
        let expect cls line =
          let resp = decode (Serve.handle_line t line) in
          Alcotest.(check string) ("class " ^ cls) cls (error_class resp)
        in
        expect "bad-request" "{this is not json";
        expect "bad-request" (req [ ("op", Json.Str "frobnicate") ]);
        expect "compile" (run_req {|main = "five" + 5|});
        expect "runtime" (run_req {|main = error "boom"|});
        expect "resource"
          (run_req "loop n = loop (n + 1)\nmain = loop (0 :: Int)"
             ~extra:[ ("fuel", Json.Int 1000) ]);
        with_plan
          (Inject.plan ~rate:1. ~points:[ Inject.Serve_transient ] ())
          (fun () -> expect "transient" (run_req "main = 1 + 1"));
        with_plan
          (Inject.plan ~rate:1. ~points:[ Inject.Eval_step ] ~max_faults:1 ())
          (fun () -> expect "ice" (run_req "main = 1 + 1"));
        let m = Serve.metrics t in
        let hists = Metrics.histograms m in
        List.iter
          (fun cls ->
            match List.assoc_opt ("serve/failures/" ^ cls) hists with
            | Some h ->
                Alcotest.(check bool)
                  ("failures/" ^ cls ^ " observed")
                  true
                  (Metrics.hist_count h >= 1)
            | None -> Alcotest.failf "no serve/failures/%s histogram" cls)
          [ "bad-request"; "compile"; "runtime"; "resource"; "transient";
            "ice" ]);
    case "per-op latency counts sum exactly to the request counter"
      (fun () ->
        let t = Serve.create ~config:test_config () in
        let handle line = decode (Serve.handle_line t line) in
        ignore (handle (req [ ("op", Json.Str "ping") ]));
        ignore (handle (run_req demo));
        ignore (handle (req [ ("op", Json.Str "check");
                              ("src", Json.Str {|main = "five" + 5|}) ]));
        ignore (handle "{nope");
        (* the mid-stream snapshot excludes the in-flight metrics request
           from both sides of the invariant *)
        let snap = field "metrics" (handle (req [ ("op", Json.Str "metrics") ]))
        in
        (match Json.member "counters" snap with
        | Some counters ->
            Alcotest.(check bool) "mid-stream counter" true
              (Json.member "serve/requests" counters = Some (Json.Int 4))
        | None -> Alcotest.fail "snapshot lacks counters");
        ignore (handle (req [ ("op", Json.Str "stats") ]));
        let m = Serve.metrics t in
        let requests =
          Metrics.counter_value (Metrics.counter m "serve/requests")
        in
        Alcotest.(check int) "all six requests counted" 6 requests;
        Alcotest.(check int) "latency counts sum to the counter" requests
          (latency_total m);
        (* pipeline spans accumulate across requests in the same registry *)
        Alcotest.(check bool) "compile spans present" true
          (List.mem "compile" (span_names m)));
    case "injectable clock: deterministic latency quantiles and uptime"
      (fun () ->
        let config = { test_config with Serve.clock = ticking () } in
        let t = Serve.create ~config () in
        for _ = 1 to 3 do
          ignore (Serve.handle_line t (req [ ("op", Json.Str "ping") ]))
        done;
        let resp = decode (Serve.handle_line t (req [ ("op", Json.Str "stats") ]))
        in
        let stats = field "stats" resp in
        let latency = field "latency" stats in
        Alcotest.(check bool) "three observed" true
          (Json.member "count" latency = Some (Json.Int 3));
        (* each ping took exactly one 1000us tick: both quantiles are the
           upper bound of the bucket holding 1000 *)
        Alcotest.(check bool) "p50" true
          (Json.member "p50_us" latency = Some (Json.Int 1023));
        Alcotest.(check bool) "p99" true
          (Json.member "p99_us" latency = Some (Json.Int 1023));
        match Json.member "uptime_ms" stats with
        | Some (Json.Int ms) ->
            Alcotest.(check bool) "uptime counts ticks" true (ms > 0);
            Alcotest.(check bool) "uptime from server accessor" true
              (Serve.uptime_ms t > ms)
        | _ -> Alcotest.fail "no uptime_ms");
    case "metrics op honours the stable flag" (fun () ->
        let t = Serve.create ~config:test_config () in
        ignore (Serve.handle_line t (req [ ("op", Json.Str "ping") ]));
        let snap stable =
          let extra = if stable then [ ("stable", Json.Bool true) ] else [] in
          field "metrics"
            (decode
               (Serve.handle_line t
                  (req ([ ("op", Json.Str "metrics") ] @ extra))))
        in
        let hist snapshot =
          match Json.member "histograms" snapshot with
          | Some h -> Json.member "serve/latency/ping" h
          | None -> None
        in
        (match hist (snap false) with
        | Some h ->
            Alcotest.(check bool) "full detail" true
              (Json.member "p99" h <> None)
        | None -> Alcotest.fail "no ping latency histogram");
        match hist (snap true) with
        | Some (Json.Obj fields) ->
            Alcotest.(check (list string)) "stable is counts only"
              [ "count" ] (List.map fst fields)
        | _ -> Alcotest.fail "no stable ping latency histogram");
    case "run emits a spontaneous snapshot line every N requests"
      (fun () ->
        let config = { test_config with Serve.snapshot_every = 2 } in
        let inputs =
          ref (List.init 5 (fun _ -> req [ ("op", Json.Str "ping") ]))
        in
        let next () =
          match !inputs with
          | [] -> None
          | x :: rest ->
              inputs := rest;
              Some x
        in
        let emitted = ref [] in
        let m =
          (Pool.run ~config ~next
             ~emit:(fun l -> emitted := l :: !emitted)
             ())
            .Pool.metrics
        in
        Alcotest.(check int) "five responses" 5 (Serve.requests m);
        let events =
          List.filter
            (fun l -> Json.member "event" (decode l) <> None)
            (List.rev !emitted)
        in
        Alcotest.(check int) "snapshots after requests 2 and 4" 2
          (List.length events);
        List.iter
          (fun l ->
            let e = decode l in
            Alcotest.(check bool) "event tag" true
              (Json.member "event" e = Some (Json.Str "metrics-snapshot"));
            Alcotest.(check bool) "carries the registry" true
              (Json.member "metrics" e <> None))
          events);
  ]

(* ------------------------------------------------------------------ *)
(* Registry merging (the multi-worker aggregation path).               *)
(* ------------------------------------------------------------------ *)

let merge_cases =
  [
    case "merge with disjoint counter keys keeps both" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.add (Metrics.counter a "serve/requests") 3;
        Metrics.add (Metrics.counter b "scale/cache/hits") 5;
        Alcotest.(check (list (pair string int)))
          "disjoint keys union, shared order by name"
          [ ("scale/cache/hits", 5); ("serve/requests", 3) ]
          (Metrics.counters (Metrics.fold [ a; b ])));
    case "merge adds shared counters and maxes gauges" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.add (Metrics.counter a "reqs") 3;
        Metrics.add (Metrics.counter b "reqs") 4;
        Metrics.set (Metrics.gauge a "depth") 9;
        Metrics.set (Metrics.gauge b "depth") 2;
        Metrics.set (Metrics.gauge b "only-b") 6;
        let ab = Metrics.fold [ a; b ] in
        Alcotest.(check int) "counters add" 7
          (Metrics.counter_value (Metrics.counter ab "reqs"));
        Alcotest.(check (list (pair string int)))
          "gauges take max; new gauges appear"
          [ ("depth", 9); ("only-b", 6) ]
          (Metrics.gauges ab));
    case "merging an empty registry is the identity" (fun () ->
        let a = Metrics.create () in
        Metrics.add (Metrics.counter a "reqs") 2;
        Metrics.observe (Metrics.histogram a "lat") 100;
        ignore (Metrics.span_push a "compile");
        Metrics.span_pop a;
        Metrics.span_record a "compile" ~ns:10 ~words:1;
        let before = Json.to_string (Metrics.snapshot a) in
        let snap ts = Json.to_string (Metrics.snapshot (Metrics.fold ts)) in
        Alcotest.(check string) "with an empty one" before
          (snap [ a; Metrics.create () ]);
        Alcotest.(check string) "into an empty one" before
          (snap [ Metrics.create (); a ]);
        Alcotest.(check string) "alone, a copy" before (snap [ a ]);
        (* A disabled registry folds in as nothing, not a crash. *)
        Alcotest.(check string) "disabled no-op" before
          (snap [ Metrics.disabled; a; Metrics.disabled ]));
    case "histogram merge preserves quantile monotonicity" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        let ha = Metrics.histogram a "lat" and hb = Metrics.histogram b "lat" in
        (* One low-latency stream, one heavy-tailed stream. *)
        List.iter (Metrics.observe ha) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        List.iter (Metrics.observe hb) [ 1000; 2000; 4000; 1 lsl 30 ];
        (* Reference: every observation in a single histogram. *)
        let all = Metrics.create () in
        let href = Metrics.histogram all "lat" in
        List.iter (Metrics.observe href)
          [ 1; 2; 3; 4; 5; 6; 7; 8; 1000; 2000; 4000; 1 lsl 30 ];
        let ha = List.assoc "lat" (Metrics.histograms (Metrics.fold [ a; b ])) in
        Alcotest.(check int) "count sums" 12 (Metrics.hist_count ha);
        List.iter
          (fun q ->
            Alcotest.(check int)
              (Printf.sprintf "q%.2f equals single-stream histogram" q)
              (Metrics.quantile href q) (Metrics.quantile ha q))
          [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
        let qs = List.map (Metrics.quantile ha) [ 0.5; 0.9; 0.99; 1.0 ] in
        let rec mono = function
          | x :: (y :: _ as rest) -> x <= y && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "p50 <= p90 <= p99 <= p100" true (mono qs));
    case "merge accumulates span stats preserving entry order" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        let enter m name =
          ignore (Metrics.span_push m name);
          Metrics.span_pop m
        in
        enter a "compile";
        Metrics.span_record a "compile" ~ns:100 ~words:10;
        enter b "compile";
        enter b "exec";
        Metrics.span_record b "compile" ~ns:50 ~words:5;
        Metrics.span_record b "exec" ~ns:7 ~words:1;
        match Metrics.spans (Metrics.fold [ a; b ]) with
        | [ c; e ] ->
            Alcotest.(check string) "into's span first" "compile" c.sp_name;
            Alcotest.(check int) "counts add" 2 c.sp_count;
            Alcotest.(check int) "ns add" 150 c.sp_ns;
            Alcotest.(check string) "new span appended" "exec" e.sp_name;
            Alcotest.(check int) "new span count" 1 e.sp_count
        | l ->
            Alcotest.failf "expected 2 spans, got %d" (List.length l));
  ]

let tests =
  [
    ("metrics instruments", instrument_cases);
    ("metrics spans", span_cases);
    ("metrics snapshots", json_cases);
    ("metrics merge", merge_cases);
    ("serve telemetry", serve_cases);
  ]
