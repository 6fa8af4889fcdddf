(** Runtime resilience: unified budgets, the fault injector, and the
    [mhc serve] request loop.

    - Both back ends exhaust every budget dimension with the same
      classified [Budget.Exhausted] (never diverge, never a bare
      exception) on the same looping/hungry programs.
    - The deterministic injector fires reproducibly from its seed, and
      every injection point is contained: front-end faults become one
      Bug diagnostic in [compile_collect]; run-time faults become one
      classified error response in [serve] — the process always lives.
    - A serve soak: thousands of mixed requests (clean, broken,
      divergent, malformed, chaos-injected) produce exactly one response
      per request. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Pool = Tc_scale.Pool
module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject
module Json = Tc_obs.Json
module Diagnostic = Tc_support.Diagnostic

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Programs.                                                           *)
(* ------------------------------------------------------------------ *)

let clean_src = "double :: Num a => a -> a\ndouble x = x + x\nmain = double 21"
let broken_src = {|main = "five" + 5|}

let diverge_src =
  "loop :: Int -> Int\nloop n = loop (n + 1)\nmain = loop 0"

let deep_src =
  "count :: Int -> Int\ncount n = if n == 0 then 0 else 1 + count (n - 1)\n\
   main = count 1000000"

let hungry_src = "main = length (replicate 1000000 1)"
let wide_src = "main = replicate 2000 1"

(* ------------------------------------------------------------------ *)
(* Budget exhaustion parity: same classification on both back ends.    *)
(* ------------------------------------------------------------------ *)

let exhaust_on backend src budget : Budget.resource =
  let c = compile src in
  match Pipeline.exec ~backend ~budget c with
  | r ->
      Alcotest.failf "expected exhaustion, got result %s" r.Pipeline.rendered
  | exception Budget.Exhausted { resource; _ } -> resource

let check_parity name src budget expected =
  case name (fun () ->
      List.iter
        (fun backend ->
          let r = exhaust_on backend src budget in
          Alcotest.(check string)
            (name ^ " resource")
            (Budget.resource_name expected)
            (Budget.resource_name r))
        [ `Tree; `Vm ])

let budget_cases =
  [
    check_parity "steps: both backends exhaust on a divergent loop"
      diverge_src (Budget.fuel 200_000) Budget.Steps;
    check_parity "frames: both backends exhaust on deep recursion" deep_src
      { Budget.unlimited with frames = 200 }
      Budget.Frames;
    check_parity "wall-clock: both backends stop a divergent loop"
      diverge_src (Budget.deadline 150.) Budget.Wall_clock;
    case "wall-clock: exhaustion reports elapsed milliseconds" (fun () ->
        List.iter
          (fun backend ->
            let c = compile diverge_src in
            match Pipeline.exec ~backend ~budget:(Budget.deadline 150.) c with
            | r ->
                Alcotest.failf "expected exhaustion, got %s"
                  r.Pipeline.rendered
            | exception Budget.Exhausted { resource; spent; limit } ->
                Alcotest.(check string) "resource" "wall-clock"
                  (Budget.resource_name resource);
                Alcotest.(check int) "limit" 150 limit;
                if spent < 150 || spent >= 1150 then
                  Alcotest.failf "spent %d, expected ms in [150, 1150)" spent)
          [ `Tree; `Vm ]);
    check_parity "allocations: both backends cap a hungry program"
      hungry_src
      { Budget.unlimited with allocations = 5_000 }
      Budget.Allocations;
    check_parity "output: both backends cap the rendered result" wide_src
      { Budget.unlimited with output_bytes = 100 }
      Budget.Output;
    case "unlimited budget still completes" (fun () ->
        let c = compile clean_src in
        List.iter
          (fun backend ->
            let r = Pipeline.exec ~backend c in
            Alcotest.(check string) "result" "42" r.Pipeline.rendered)
          [ `Tree; `Vm ]);
    case "exhaustion message is classified and bounded" (fun () ->
        Alcotest.(check string)
          "message" "resource exhausted: steps (spent 10, limit 10)"
          (Budget.message Budget.Steps ~spent:10 ~limit:10);
        match exhaust_on `Tree diverge_src (Budget.fuel 1_000) with
        | r -> Alcotest.(check string) "steps" "steps" (Budget.resource_name r));
  ]

(* ------------------------------------------------------------------ *)
(* The batched step meter: exact at every batch boundary.              *)
(* ------------------------------------------------------------------ *)

let batch = Budget.batch_size

(* Step limits on, next to and across batch and clock-interval
   boundaries. *)
let limits =
  [ 1; 2; batch - 1; batch; batch + 1; batch + 2; 2 * batch; (2 * batch) + 1;
    Budget.clock_interval - 1; Budget.clock_interval;
    Budget.clock_interval + 1; 5_000 ]

let expect_exhausted ~what f =
  match f () with
  | () -> Alcotest.failf "%s: expected exhaustion" what
  | exception Budget.Exhausted { resource; spent; limit } ->
      (resource, spent, limit)

let exhaustion = Alcotest.(triple string int int)

let as_triple (r, spent, limit) = (Budget.resource_name r, spent, limit)

(* A program that needs exactly [s] steps completes under [fuel s] and
   exhausts under [fuel (s - 1)] with [spent s, limit s - 1], also with a
   deadline set, which shortens batches to the next clock read. *)
let check_exact_fuel ~backend c s =
  List.iter
    (fun wall_ms ->
      let budget steps = { Budget.unlimited with steps; wall_ms } in
      let r = Pipeline.exec ~backend ~budget:(budget s) c in
      Alcotest.(check int) "steps under fuel S" s r.Pipeline.counters.steps;
      match Pipeline.exec ~backend ~budget:(budget (s - 1)) c with
      | r ->
          Alcotest.failf "fuel %d: completed with %s" (s - 1)
            r.Pipeline.rendered
      | exception Budget.Exhausted { resource; spent; limit } ->
          Alcotest.check exhaustion
            (Printf.sprintf "fuel S-1 (S = %d)" s)
            ("steps", s, s - 1)
            (as_triple (resource, spent, limit)))
    [ 0.; 60_000. ]

let count_src n =
  Printf.sprintf
    "count :: Int -> Int\ncount n = if n == 0 then 0 else count (n - 1)\n\
     main = count %d"
    n

let steps_of ~backend n =
  (Pipeline.exec ~backend (compile (count_src n))).Pipeline.counters.steps

let batch_cases =
  [
    case "meter: S steps fit a limit of S, step S+1 is reported exactly"
      (fun () ->
        List.iter
          (fun wall_ms ->
            List.iter
              (fun l ->
                let m =
                  Budget.meter { Budget.unlimited with steps = l; wall_ms }
                in
                for i = 1 to l do
                  Budget.step m ~allocs:0;
                  if Budget.steps_spent m <> i then
                    Alcotest.failf "limit %d: steps_spent %d after %d steps" l
                      (Budget.steps_spent m) i
                done;
                Alcotest.check exhaustion
                  (Printf.sprintf "limit %d" l)
                  ("steps", l + 1, l)
                  (as_triple
                     (expect_exhausted ~what:"step past the limit" (fun () ->
                          Budget.step m ~allocs:0))))
              limits)
          [ 0.; 60_000. ]);
    case "meter: the clock is read on every clock_interval-th step" (fun () ->
        let m = Budget.meter (Budget.deadline 0.001) in
        Unix.sleepf 0.002;
        for _ = 1 to Budget.clock_interval - 1 do
          Budget.step m ~allocs:0
        done;
        let r, _, limit =
          expect_exhausted ~what:"the first clock read" (fun () ->
              Budget.step m ~allocs:0)
        in
        Alcotest.(check string) "resource" "wall-clock" (Budget.resource_name r);
        Alcotest.(check int) "limit" 0 limit;
        Alcotest.(check int) "at step" Budget.clock_interval
          (Budget.steps_spent m));
    case "meter: the step after the cap is passed reports it" (fun () ->
        List.iter
          (fun taken ->
            let m = Budget.meter { Budget.unlimited with allocations = 5 } in
            for _ = 1 to taken do
              Budget.step m ~allocs:5
            done;
            (* the back end counts the sixth allocation mid-step *)
            Budget.allocated m 6;
            Alcotest.check exhaustion "allocations" ("allocations", 6, 5)
              (as_triple
                 (expect_exhausted ~what:"the step after the sixth" (fun () ->
                      Budget.step m ~allocs:6)));
            Alcotest.(check int) "steps" (taken + 1) (Budget.steps_spent m))
          [ 1; 2; batch - 1; batch; batch + 1; 3 * batch ]);
    case "programs: fuel S completes and S-1 exhausts, across a batch"
      (fun () ->
        List.iter
          (fun backend ->
            (* the largest run within one batch and the smallest past it *)
            let rec straddle n =
              let s = steps_of ~backend n and s' = steps_of ~backend (n + 1) in
              if s' > batch then (n, n + 1)
              else if s' <= s then Alcotest.fail "count n must grow with n"
              else straddle (n + 1)
            in
            if steps_of ~backend 0 > batch then
              Alcotest.fail "count 0 takes more than a batch";
            let below, above = straddle 0 in
            List.iter
              (fun n ->
                check_exact_fuel ~backend (compile (count_src n))
                  (steps_of ~backend n))
              [ 0; below; above; above + 1; 4 * above ])
          [ `Tree; `Vm ]);
  ]

(* ------------------------------------------------------------------ *)
(* The injector: deterministic, seeded, contained.                     *)
(* ------------------------------------------------------------------ *)

let with_plan plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let front_points =
  [ Inject.Lex; Inject.Parse; Inject.Static; Inject.Infer; Inject.Translate ]

let injector_cases =
  [
    case "same seed fires the same visits" (fun () ->
        let fire_pattern seed =
          with_plan (Inject.plan ~seed ~rate:0.5 ~points:[ Inject.Eval_step ] ())
            (fun () ->
              let c = compile clean_src in
              (try ignore (Pipeline.exec c) with Inject.Fault _ -> ());
              Inject.fired ())
        in
        Alcotest.(check int) "reproducible" (fire_pattern 42) (fire_pattern 42);
        Alcotest.(check bool) "disarmed afterwards" false (Inject.armed ()));
    case "rate 0 never fires, rate 1 always fires" (fun () ->
        with_plan (Inject.plan ~rate:0. ()) (fun () ->
            Inject.hit Inject.Lex;
            Alcotest.(check int) "rate 0" 0 (Inject.fired ()));
        with_plan (Inject.plan ~rate:1. ~points:[ Inject.Lex ] ()) (fun () ->
            (try
               Inject.hit Inject.Lex;
               Alcotest.fail "expected a fault"
             with Inject.Fault _ -> ());
            Alcotest.(check int) "rate 1" 1 (Inject.fired ())));
    case "max_faults stops the storm" (fun () ->
        with_plan (Inject.plan ~rate:1. ~max_faults:2 ()) (fun () ->
            let faults = ref 0 in
            for _ = 1 to 5 do
              try Inject.hit Inject.Lex with Inject.Fault _ -> incr faults
            done;
            Alcotest.(check int) "capped" 2 !faults));
    case "max_faults holds across domains" (fun () ->
        (* the domains start together, so they race for the first slots;
           a few rounds make a lost race likely to show *)
        for _ = 1 to 20 do
          with_plan (Inject.plan ~rate:1. ~max_faults:3 ()) (fun () ->
              let go = Atomic.make false in
              let worker () =
                while not (Atomic.get go) do Domain.cpu_relax () done;
                let faults = ref 0 in
                for _ = 1 to 10_000 do
                  try Inject.hit Inject.Eval_step with Inject.Fault _ -> incr faults
                done;
                !faults
              in
              let domains = List.init 4 (fun _ -> Domain.spawn worker) in
              Atomic.set go true;
              let faults = List.fold_left (fun n d -> n + Domain.join d) 0 domains in
              Alcotest.(check int) "faults raised" 3 faults;
              Alcotest.(check int) "fired" 3 (Inject.fired ()))
        done);
    case "spec parsing" (fun () ->
        (match Inject.parse_spec "vm-step:0.5:42" with
        | Ok p ->
            Alcotest.(check bool) "points" true (p.points = [ Inject.Vm_step ]);
            Alcotest.(check int) "seed" 42 p.seed
        | Error m -> Alcotest.failf "parse failed: %s" m);
        match Inject.parse_spec "no-such-point" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ());
    case "every point name round-trips" (fun () ->
        List.iter
          (fun p ->
            match Inject.point_of_name (Inject.point_name p) with
            | Some p' ->
                Alcotest.(check string)
                  "name" (Inject.point_name p) (Inject.point_name p')
            | None -> Alcotest.failf "point %s" (Inject.point_name p))
          Inject.all_points);
  ]

(* Front-end chaos: every compile-stage fault is contained by
   [compile_collect] as exactly one Bug diagnostic; it never raises. *)
let front_chaos_cases =
  List.map
    (fun point ->
      case
        ("chaos: compile_collect contains a fault at "
        ^ Inject.point_name point)
        (fun () ->
          with_plan (Inject.plan ~rate:1. ~points:[ point ] ~max_faults:1 ())
            (fun () ->
              match Pipeline.compile_collect ~file:"<chaos>" clean_src with
              | { Pipeline.diagnostics; artifact = _ } ->
                  let bugs =
                    List.filter
                      (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Bug)
                      diagnostics
                  in
                  Alcotest.(check int) "one Bug diagnostic" 1 (List.length bugs)
              | exception e ->
                  Alcotest.failf "compile_collect raised %s"
                    (Printexc.to_string e))))
    front_points

(* ------------------------------------------------------------------ *)
(* Serve: decoding, isolation, classification.                         *)
(* ------------------------------------------------------------------ *)

(* A serve config that never really sleeps: backoff must not slow tests. *)
let test_config =
  { Serve.default_config with Serve.sleep = (fun _ -> ()) }

let server () = Serve.create ~config:test_config ()

let decode line =
  match Json.parse line with
  | Ok v -> v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let field name resp =
  match Json.member name resp with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_line resp)

let is_ok resp = field "ok" resp = Json.Bool true

let error_class resp =
  match Json.member "class" (field "error" resp) with
  | Some (Json.Str c) -> c
  | _ -> Alcotest.failf "no error class: %s" (Json.to_line resp)

let req fields = Json.to_line (Json.Obj fields)

let run_req ?(extra = []) src =
  req ([ ("op", Json.Str "run"); ("src", Json.Str src) ] @ extra)

let serve_cases =
  [
    case "ping echoes the id" (fun () ->
        let t = server () in
        let resp =
          decode (Serve.handle_line t {|{"op":"ping","id":"abc"}|})
        in
        Alcotest.(check bool) "ok" true (is_ok resp);
        Alcotest.(check bool) "id" true (field "id" resp = Json.Str "abc"));
    case "run returns the rendered value and counters" (fun () ->
        let t = server () in
        let resp = decode (Serve.handle_line t (run_req clean_src)) in
        Alcotest.(check bool) "ok" true (is_ok resp);
        Alcotest.(check bool) "value" true (field "value" resp = Json.Str "42");
        ignore (field "counters" resp));
    case "run on both backends and all strategies" (fun () ->
        let t = server () in
        List.iter
          (fun extra ->
            let resp =
              decode (Serve.handle_line t (run_req ~extra clean_src))
            in
            Alcotest.(check bool)
              ("ok " ^ req extra)
              true (is_ok resp);
            Alcotest.(check bool)
              ("value " ^ req extra)
              true
              (field "value" resp = Json.Str "42"))
          [
            [ ("backend", Json.Str "vm") ];
            [ ("backend", Json.Str "vm"); ("mode", Json.Str "strict") ];
            [ ("strategy", Json.Str "tags") ];
            [ ("strategy", Json.Str "dict-flat"); ("opt", Json.Str "all") ];
          ]);
    case "check reports diagnostics without failing the request" (fun () ->
        let t = server () in
        let resp =
          decode
            (Serve.handle_line t
               (req [ ("op", Json.Str "check"); ("src", Json.Str broken_src) ]))
        in
        Alcotest.(check bool) "ok" true (is_ok resp);
        Alcotest.(check bool) "errors > 0" true
          (match field "errors" resp with Json.Int n -> n > 0 | _ -> false);
        Alcotest.(check bool) "no artifact" true
          (field "artifact" resp = Json.Bool false));
    case "check of an out-of-range literal is an error, not an ICE"
      (fun () ->
        let t = server () in
        let resp =
          decode
            (Serve.handle_line t
               (req
                  [
                    ("op", Json.Str "check");
                    ("src", Json.Str "main = 99999999999999999999999");
                  ]))
        in
        Alcotest.(check bool) "ok" true (is_ok resp);
        Alcotest.(check bool) "errors: 1" true (field "errors" resp = Json.Int 1);
        Alcotest.(check bool) "ice: 0" true (field "ice" resp = Json.Int 0));
    case "compile returns user schemes" (fun () ->
        let t = server () in
        let resp =
          decode
            (Serve.handle_line t
               (req [ ("op", Json.Str "compile"); ("src", Json.Str clean_src) ]))
        in
        Alcotest.(check bool) "ok" true (is_ok resp);
        match Json.member "double" (field "schemes" resp) with
        | Some (Json.Str s) ->
            Alcotest.(check string) "scheme" "Num a => a -> a" s
        | _ -> Alcotest.fail "missing scheme for double");
    case "failure classes" (fun () ->
        let t = server () in
        let cls line = error_class (decode (Serve.handle_line t line)) in
        Alcotest.(check string) "bad json" "bad-request" (cls "{nope");
        Alcotest.(check string) "missing op" "bad-request" (cls "{}");
        Alcotest.(check string) "unknown op" "bad-request"
          (cls {|{"op":"explode"}|});
        Alcotest.(check string) "missing src" "bad-request"
          (cls {|{"op":"run"}|});
        Alcotest.(check string) "compile error" "compile"
          (cls (run_req broken_src));
        Alcotest.(check string) "runtime error" "runtime"
          (cls (run_req {|main = error "boom"|}));
        Alcotest.(check string) "fuel" "resource"
          (cls (run_req ~extra:[ ("fuel", Json.Int 1000) ] diverge_src));
        Alcotest.(check string) "timeout" "resource"
          (cls (run_req ~extra:[ ("timeout_ms", Json.Int 150) ] diverge_src)));
    case "per-request isolation: a failure does not poison the next"
      (fun () ->
        let t = server () in
        ignore (Serve.handle_line t (run_req broken_src));
        ignore
          (Serve.handle_line t
             (run_req ~extra:[ ("fuel", Json.Int 100) ] diverge_src));
        let resp = decode (Serve.handle_line t (run_req clean_src)) in
        Alcotest.(check bool) "clean run still works" true (is_ok resp);
        Alcotest.(check bool) "value" true (field "value" resp = Json.Str "42"));
    case "stats tallies requests by op and failure class" (fun () ->
        let t = server () in
        ignore (Serve.handle_line t (run_req clean_src));
        ignore (Serve.handle_line t (run_req broken_src));
        ignore (Serve.handle_line t "{nope");
        let resp = decode (Serve.handle_line t {|{"op":"stats"}|}) in
        let stats = field "stats" resp in
        Alcotest.(check bool) "requests" true
          (field "requests" stats = Json.Int 4);
        Alcotest.(check bool) "compile tally" true
          (Json.member "compile" (field "by_class" stats) = Some (Json.Int 1));
        Alcotest.(check bool) "bad-request tally" true
          (Json.member "bad-request" (field "by_class" stats)
          = Some (Json.Int 1)));
    case "graceful drain on EOF returns the tally" (fun () ->
        let inputs = ref [ run_req clean_src; {|{"op":"ping"}|} ] in
        let outputs = ref [] in
        let { Pool.metrics = m; _ } =
          Pool.run ~config:test_config
            ~next:(fun () ->
              match !inputs with
              | [] -> None
              | l :: rest ->
                  inputs := rest;
                  Some l)
            ~emit:(fun l -> outputs := l :: !outputs)
            ()
        in
        Alcotest.(check int) "responses" 2 (List.length !outputs);
        Alcotest.(check int) "requests" 2 (Serve.requests m);
        Alcotest.(check int) "ok" 2 (Serve.requests m - Serve.failed m));
    case "stop flag drains between requests" (fun () ->
        let served = ref 0 in
        let { Pool.metrics = m; _ } =
          Pool.run ~config:test_config
            ~stop:(fun () -> !served >= 2)
            ~next:(fun () -> Some {|{"op":"ping"}|})
            ~emit:(fun _ -> incr served)
            ()
        in
        Alcotest.(check int) "stopped after two" 2 (Serve.requests m));
  ]

(* ------------------------------------------------------------------ *)
(* Serve chaos matrix: every injection point, both backends — one      *)
(* classified response per request, the server never dies.             *)
(* ------------------------------------------------------------------ *)

let serve_chaos_cases =
  let matrix =
    List.concat_map
      (fun point -> [ (point, "tree"); (point, "vm") ])
      Inject.all_points
  in
  List.map
    (fun (point, backend) ->
      case
        (Printf.sprintf "chaos: serve contains %s on %s"
           (Inject.point_name point) backend)
        (fun () ->
          with_plan (Inject.plan ~rate:1. ~points:[ point ] ~max_faults:1 ())
            (fun () ->
              let t =
                Serve.create
                  ~config:{ test_config with Serve.retries = 0 }
                  ()
              in
              let line =
                run_req
                  ~extra:
                    [
                      ("backend", Json.Str backend); ("opt", Json.Str "all");
                    ]
                  clean_src
              in
              let resp = decode (Serve.handle_line t line) in
              (* the fault either fired (classified error response) or
                 that point was never visited on this backend (clean
                 answer) — either way exactly one response, no escape *)
              if Inject.fired () > 0 then begin
                Alcotest.(check bool) "not ok" false (is_ok resp);
                let cls = error_class resp in
                Alcotest.(check bool)
                  ("classified: " ^ cls)
                  true
                  (List.mem cls [ "ice"; "resource"; "transient" ])
              end
              else Alcotest.(check bool) "clean" true (is_ok resp);
              (* and the server survives to answer another request *)
              Inject.disarm ();
              let again = decode (Serve.handle_line t (run_req clean_src)) in
              Alcotest.(check bool) "server alive" true (is_ok again))))
    matrix

let retry_cases =
  [
    case "transient faults retry with backoff and then succeed" (fun () ->
        with_plan
          (Inject.plan ~rate:1. ~points:[ Inject.Serve_transient ]
             ~max_faults:2 ())
          (fun () ->
            let slept = ref [] in
            let config =
              {
                test_config with
                Serve.retries = 3;
                backoff_ms = 10.;
                sleep = (fun s -> slept := s :: !slept);
              }
            in
            let t = Serve.create ~config () in
            let resp = decode (Serve.handle_line t (run_req clean_src)) in
            Alcotest.(check bool) "eventually ok" true (is_ok resp);
            Alcotest.(check int) "retried twice" 2
              (Serve.retries (Serve.metrics t));
            (* exponential: 10ms then 20ms *)
            Alcotest.(check (list (float 0.0001)))
              "backoff doubles" [ 0.01; 0.02 ]
              (List.rev !slept)));
    case "transient faults beyond the retry cap are classified" (fun () ->
        with_plan
          (Inject.plan ~rate:1. ~points:[ Inject.Serve_transient ] ())
          (fun () ->
            let config = { test_config with Serve.retries = 2 } in
            let t = Serve.create ~config () in
            let resp = decode (Serve.handle_line t (run_req clean_src)) in
            Alcotest.(check bool) "failed" false (is_ok resp);
            Alcotest.(check string) "class" "transient" (error_class resp)));
  ]

(* ------------------------------------------------------------------ *)
(* Soak: thousands of mixed requests, exactly one response each.       *)
(* ------------------------------------------------------------------ *)

let soak_cases =
  [
    case "soak: 2400 mixed requests, one response per request" (fun () ->
        let shapes =
          [|
            (fun _ -> req [ ("op", Json.Str "ping"); ("id", Json.Int 0) ]);
            (fun _ -> run_req clean_src);
            (fun _ -> run_req ~extra:[ ("backend", Json.Str "vm") ] clean_src);
            (fun _ -> run_req broken_src);
            (fun _ ->
              req [ ("op", Json.Str "check"); ("src", Json.Str broken_src) ]);
            (fun _ -> run_req ~extra:[ ("fuel", Json.Int 5_000) ] diverge_src);
            (fun _ ->
              run_req
                ~extra:
                  [ ("backend", Json.Str "vm"); ("fuel", Json.Int 5_000) ]
                diverge_src);
            (fun _ -> "this is not json");
            (fun _ -> {|{"op":"no-such-op"}|});
            (fun _ -> {|{"op":"run"}|});
            (fun _ -> {|{"op":"stats"}|});
            (fun i ->
              run_req
                ~extra:[ ("id", Json.Int i); ("mode", Json.Str "strict") ]
                clean_src);
          |]
        in
        let n = 2400 in
        let sent = ref 0 and received = ref 0 in
        let { Pool.metrics = m; _ } =
          Pool.run ~config:test_config
            ~next:(fun () ->
              if !sent >= n then None
              else begin
                incr sent;
                Some (shapes.(!sent mod Array.length shapes) !sent)
              end)
            ~emit:(fun line ->
              incr received;
              ignore (decode line))
            ()
        in
        Alcotest.(check int) "every request answered" n !received;
        Alcotest.(check int) "requests counted" n (Serve.requests m);
        Alcotest.(check bool) "some succeeded" true
          (Serve.requests m - Serve.failed m > 0);
        Alcotest.(check bool) "some failed" true (Serve.failed m > 0));
    case "soak: sporadic chaos-injected eval faults never kill the loop"
      (fun () ->
        with_plan
          (Inject.plan ~seed:7 ~rate:0.0005 ~points:[ Inject.Eval_step ] ())
          (fun () ->
            let n = 50 in
            let sent = ref 0 and received = ref 0 in
            ignore
              (Pool.run ~config:test_config
                 ~next:(fun () ->
                   if !sent >= n then None
                   else begin
                     incr sent;
                     Some (run_req clean_src)
                   end)
                 ~emit:(fun line ->
                   incr received;
                   ignore (decode line))
                 ());
            Alcotest.(check int) "every request answered" n !received));
  ]

(* ------------------------------------------------------------------ *)
(* Property tests: random budgets, random request mixes.               *)
(* ------------------------------------------------------------------ *)

let prop_cases =
  [
    prop "any budget: exec returns or raises classified Exhausted" ~count:60
      QCheck2.Gen.(
        quad (int_range 0 50_000) (int_range 0 500) (int_range 0 20_000)
          (int_range 0 2_000))
      (fun (steps, frames, allocations, output_bytes) ->
        let budget =
          { Budget.unlimited with steps; frames; allocations; output_bytes }
        in
        let c = compile clean_src in
        List.for_all
          (fun backend ->
            match Pipeline.exec ~backend ~budget c with
            | r -> r.Pipeline.rendered = "42"
            | exception Budget.Exhausted _ -> true)
          [ `Tree; `Vm ]);
    prop "any budget fields: serve answers exactly once" ~count:60
      QCheck2.Gen.(
        triple (int_range 1_000 100_000) (int_range 0 300) bool)
      (fun (fuel, frames, vm) ->
        let t = server () in
        let extra =
          [
            ("fuel", Json.Int fuel);
            ("frames", Json.Int frames);
            (* wall-clock backstop so no combination can stall the suite *)
            ("timeout_ms", Json.Int 2_000);
            ("backend", Json.Str (if vm then "vm" else "tree"));
          ]
        in
        let resp = decode (Serve.handle_line t (run_req ~extra diverge_src)) in
        (* divergent program: must fail, and must fail classified *)
        (not (is_ok resp))
        && List.mem (error_class resp) [ "resource" ]
        && Serve.requests (Serve.metrics t) = 1);
  ]

(* ------------------------------------------------------------------ *)
(* JSON parser round-trip.                                             *)
(* ------------------------------------------------------------------ *)

let json_cases =
  [
    case "parse round-trips the printer" (fun () ->
        let samples =
          [
            Json.Null;
            Json.Bool true;
            Json.Int (-42);
            Json.Float 1.5;
            Json.Str "he said \"hi\"\n\ttab";
            Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
            Json.Obj
              [
                ("a", Json.Int 1);
                ("nested", Json.Obj [ ("b", Json.List [] ) ]);
                ("s", Json.Str "x");
              ];
          ]
        in
        List.iter
          (fun v ->
            match Json.parse (Json.to_line v) with
            | Ok v' ->
                Alcotest.(check string)
                  "round-trip" (Json.to_line v) (Json.to_line v')
            | Error m -> Alcotest.failf "parse failed (%s)" m)
          samples);
    case "parse rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ ""; "{"; "[1,"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "1 2" ]);
    case "parse handles unicode escapes" (fun () ->
        match Json.parse "\"\\u00e9A\"" with
        | Ok (Json.Str s) -> Alcotest.(check string) "decoded" "\xc3\xa9A" s
        | _ -> Alcotest.fail "expected a string");
    case "escapes at the edges of copied runs decode" (fun () ->
        let long = String.make 5000 'x' in
        List.iter
          (fun (src, want) ->
            match Json.parse src with
            | Ok (Json.Str s) -> Alcotest.(check string) src want s
            | Ok _ -> Alcotest.failf "%S: expected a string" src
            | Error m -> Alcotest.failf "%S: %s" src m)
          [
            ({|""|}, "");
            ({|"\n"|}, "\n");
            ({|"\"abc"|}, "\"abc");
            ({|"abc\\"|}, "abc\\");
            ({|"\t\r\/\b\f"|}, "\t\r/\b\012");
            ({|"a\nb\\c\"d"|}, "a\nb\\c\"d");
            ({|"\u0041bc\u00e9"|}, "Abc\xc3\xa9");
            ({|"x\ud800y"|}, "x\xef\xbf\xbdy");
            ("\"" ^ long ^ "\\n" ^ long ^ "\"", long ^ "\n" ^ long);
          ]);
    case "string errors keep their messages" (fun () ->
        let long = String.make 5000 'x' in
        List.iter
          (fun (src, want) ->
            match Json.parse src with
            | Ok _ -> Alcotest.failf "accepted %S" src
            | Error m -> Alcotest.(check string) src want m)
          [
            ("\"" ^ long, "unterminated string");
            ("\"" ^ long ^ "\\n" ^ long, "unterminated string");
            ("\"" ^ long ^ "\\", "unterminated escape");
            ({|"ab\q"|}, "bad escape '\\q'");
            ({|"ab\u12"|}, "truncated \\u escape");
            ({|"ab\uzzzz"|}, {|bad \u escape "zzzz"|});
            ({|{"op" "x"}|}, "expected ':' at offset 6, found '\"'");
          ]);
  ]

let tests =
  [
    ("resilience-budget", budget_cases);
    ("resilience-batch", batch_cases);
    ("resilience-inject", injector_cases @ front_chaos_cases);
    ("resilience-serve", serve_cases @ retry_cases);
    ("resilience-chaos", serve_chaos_cases);
    ("resilience-soak", soak_cases @ prop_cases);
    ("resilience-json", json_cases);
  ]
