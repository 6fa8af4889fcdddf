(** The per-request flight recorder and its propagation through serve
    and the worker pool.

    - Trace IDs mint atomically from 1; sampling keeps every Nth ID and
      the disabled recorder mints 0 — and, like a disabled {!Metrics}
      registry, allocates nothing (checked with the same
      [Gc.minor_words] delta technique).
    - The per-domain ring is bounded: wraparound keeps the newest
      events and counts the overwritten ones as [dropped].
    - Dumps are Chrome trace-event JSON, and {!Rtrace.top_slow} reads
      one back into a slowest-requests digest.
    - Under serve (injected clock, both backends) every response
      carries one trace ID, the recorded phase events nest inside that
      request's [request/<op>] root span, and the per-phase durations
      sum to no more than the root's.
    - Under a 4-worker pool the same holds, plus [queue] and [emit]
      events recorded off the handling worker's domain share the
      request's ID. *)

open Helpers
module Serve = Typeclasses.Serve
module Pool = Tc_scale.Pool
module Rtrace = Tc_obs.Rtrace
module Metrics = Tc_obs.Metrics
module Span = Tc_obs.Span
module Json = Tc_obs.Json

let decode line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response %s: %s" line m

let events_of_dump d =
  match Json.member "traceEvents" d with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.failf "no traceEvents array: %s" (Json.to_line d)

let dropped_of_dump d =
  match Json.member "dropped" d with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "no dropped count"

let ev_name e =
  match Json.member "name" e with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "event without name"

(* ts/dur are microseconds (floats) in the dump *)
let ev_num field e =
  match Json.member field e with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event without %s" field

let ev_trace e =
  match Option.bind (Json.member "args" e) (Json.member "trace") with
  | Some (Json.Int t) -> t
  | _ -> Alcotest.fail "event without args.trace"

let is_root e = String.starts_with ~prefix:"request/" (ev_name e)

(* top-level phases only (no '/'): summing nested sub-spans too would
   double-count time already inside their parents *)
let is_phase e =
  let n = ev_name e in
  (not (is_root e)) && (not (String.contains n '/')) && n <> "queue"
  && n <> "emit"

(* ------------------------------------------------------------------ *)
(* The recorder.                                                       *)
(* ------------------------------------------------------------------ *)

let recorder_cases =
  [
    case "a registry's spans feed the recorder attached to it" (fun () ->
        let rt = Rtrace.create () in
        Alcotest.(check bool) "disabled registry: no recorder" false
          (Rtrace.is_on (Metrics.recorder Metrics.disabled));
        Alcotest.(check bool) "plain registry: no recorder" false
          (Rtrace.is_on (Metrics.recorder (Metrics.create ())));
        let m = Metrics.create ~recorder:rt () in
        Alcotest.(check bool) "attached" true (Metrics.recorder m == rt);
        Rtrace.set_current rt (Rtrace.mint rt);
        Span.wrap m "outer" (fun () -> Span.wrap m "inner" ignore);
        Rtrace.clear_current rt;
        Alcotest.(check (list string)) "one event per span"
          [ "outer"; "outer/inner" ]
          (List.sort compare
             (List.map ev_name (events_of_dump (Rtrace.dump rt)))));
    case "IDs mint atomically from 1; sampling keeps every Nth" (fun () ->
        let rt = Rtrace.create ~sample:3 () in
        let a = Rtrace.mint rt in
        let b = Rtrace.mint rt in
        let c = Rtrace.mint rt in
        Alcotest.(check (list int)) "1, 2, 3" [ 1; 2; 3 ] [ a; b; c ];
        Alcotest.(check (list bool)) "1 and 4 sampled"
          [ true; false; false; true; false ]
          (List.map (Rtrace.sampled rt) [ 1; 2; 3; 4; 5 ]);
        Alcotest.(check bool) "0 never sampled" false (Rtrace.sampled rt 0);
        Alcotest.(check int) "sample rate" 3 (Rtrace.sample_rate rt);
        Alcotest.(check int) "disabled mints 0" 0
          (Rtrace.mint Rtrace.disabled);
        Alcotest.(check bool) "disabled never samples" false
          (Rtrace.sampled Rtrace.disabled 1));
    case "record charges the ambient current trace; unsampled IDs record \
          nothing"
      (fun () ->
        let rt = Rtrace.create ~sample:2 () in
        (* id 1 is sampled, id 2 is not *)
        Rtrace.set_current rt 1;
        Rtrace.record rt ~name:"kept" ~ts_ns:10 ~dur_ns:5 ~words:7;
        Rtrace.clear_current rt;
        Rtrace.record rt ~name:"no-current" ~ts_ns:20 ~dur_ns:5 ~words:0;
        Rtrace.set_current rt 2;
        Rtrace.record rt ~name:"unsampled" ~ts_ns:30 ~dur_ns:5 ~words:0;
        Rtrace.clear_current rt;
        Rtrace.record_as rt ~trace:2 ~name:"unsampled-as" ~ts_ns:40 ~dur_ns:5
          ~words:0;
        let evs = events_of_dump (Rtrace.dump rt) in
        Alcotest.(check (list string)) "only the sampled, current event"
          [ "kept" ] (List.map ev_name evs);
        Alcotest.(check (list int)) "charged to id 1" [ 1 ]
          (List.map ev_trace evs));
    case "ring wraparound keeps the newest events and counts drops"
      (fun () ->
        let rt = Rtrace.create ~capacity:16 () in
        Alcotest.(check int) "capacity clamps at 16" 16 (Rtrace.capacity rt);
        let id = Rtrace.mint rt in
        Rtrace.set_current rt id;
        for i = 1 to 40 do
          Rtrace.record rt
            ~name:(Printf.sprintf "e%d" i)
            ~ts_ns:(i * 1000) ~dur_ns:100 ~words:0
        done;
        Rtrace.clear_current rt;
        let d = Rtrace.dump rt in
        let evs = events_of_dump d in
        Alcotest.(check int) "window is the ring bound" 16 (List.length evs);
        Alcotest.(check int) "overwrites counted" 24 (dropped_of_dump d);
        Alcotest.(check (list string)) "newest 16 survive, oldest first"
          (List.init 16 (fun i -> Printf.sprintf "e%d" (25 + i)))
          (List.map ev_name evs));
    case "dump events are Chrome trace-event shaped" (fun () ->
        let rt = Rtrace.create () in
        Rtrace.record_as rt ~trace:1 ~name:"compile" ~ts_ns:2_000
          ~dur_ns:1_500 ~words:42;
        match events_of_dump (Rtrace.dump rt) with
        | [ e ] ->
            Alcotest.(check string) "name" "compile" (ev_name e);
            Alcotest.(check bool) "complete-event phase" true
              (Json.member "ph" e = Some (Json.Str "X"));
            Alcotest.(check (float 0.001)) "ts in us" 2.0 (ev_num "ts" e);
            Alcotest.(check (float 0.001)) "dur in us" 1.5 (ev_num "dur" e);
            Alcotest.(check bool) "pid" true
              (Json.member "pid" e = Some (Json.Int 1));
            Alcotest.(check bool) "tid is a domain" true
              (Json.member "tid" e <> None);
            Alcotest.(check int) "args.trace" 1 (ev_trace e);
            Alcotest.(check bool) "args.words" true
              (Option.bind (Json.member "args" e) (Json.member "words")
              = Some (Json.Int 42))
        | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
    case "disabled recorder is inert and allocation-free" (fun () ->
        let rt = Rtrace.disabled in
        Alcotest.(check bool) "off" false (Rtrace.is_on rt);
        Alcotest.(check int) "no capacity" 0 (Rtrace.capacity rt);
        Alcotest.(check int) "no sampling" 0 (Rtrace.sample_rate rt);
        Alcotest.(check (list string)) "empty dump" []
          (List.map ev_name (events_of_dump (Rtrace.dump rt)));
        let noop () = () in
        let delta f =
          let w0 = Gc.minor_words () in
          f ();
          Gc.minor_words () -. w0
        in
        let bump () =
          for _ = 1 to 10_000 do
            ignore (Rtrace.mint rt);
            ignore (Rtrace.sampled rt 1);
            Rtrace.set_current rt 1;
            ignore (Rtrace.current rt);
            Rtrace.record rt ~name:"e" ~ts_ns:1 ~dur_ns:1 ~words:1;
            Rtrace.record_as rt ~trace:1 ~name:"e" ~ts_ns:1 ~dur_ns:1
              ~words:1;
            Rtrace.clear_current rt;
            Span.wrap Metrics.disabled "noop" noop
          done
        in
        (* both measurements carry the same fixed boxing overhead from
           [Gc.minor_words] itself, so equal deltas mean the ops
           allocated nothing *)
        let base = delta noop in
        let d = delta bump in
        Alcotest.(check (float 0.)) "no allocation across 80k ops" base d);
  ]

(* ------------------------------------------------------------------ *)
(* The offline digest.                                                 *)
(* ------------------------------------------------------------------ *)

let digest_cases =
  [
    case "top_slow ranks complete requests and names the dominant phase"
      (fun () ->
        let rt = Rtrace.create () in
        (* request 1: 1ms, compile-dominant *)
        Rtrace.record_as rt ~trace:1 ~name:"compile" ~ts_ns:100_000
          ~dur_ns:800_000 ~words:10;
        Rtrace.record_as rt ~trace:1 ~name:"exec" ~ts_ns:900_000
          ~dur_ns:50_000 ~words:0;
        Rtrace.record_as rt ~trace:1 ~name:"request/run" ~ts_ns:0
          ~dur_ns:1_000_000 ~words:0;
        (* request 2: a fast ping, no phases *)
        Rtrace.record_as rt ~trace:2 ~name:"request/ping" ~ts_ns:2_000_000
          ~dur_ns:10_000 ~words:0;
        (* trace 3 has no root: incomplete, excluded however slow *)
        Rtrace.record_as rt ~trace:3 ~name:"compile" ~ts_ns:3_000_000
          ~dur_ns:999_000_000 ~words:0;
        (match Rtrace.top_slow (Rtrace.dump rt) with
        | Error m -> Alcotest.failf "digest failed: %s" m
        | Ok [ slow; fast ] ->
            Alcotest.(check int) "slowest first" 1 slow.Rtrace.dg_trace;
            Alcotest.(check string) "its op" "run" slow.Rtrace.dg_op;
            Alcotest.(check int) "its latency" 1_000_000
              slow.Rtrace.dg_latency_ns;
            Alcotest.(check string) "dominant phase" "compile"
              slow.Rtrace.dg_phase;
            Alcotest.(check int) "phase time" 800_000 slow.Rtrace.dg_phase_ns;
            Alcotest.(check int) "runner-up" 2 fast.Rtrace.dg_trace;
            Alcotest.(check string) "phaseless digest" ""
              fast.Rtrace.dg_phase
        | Ok ds -> Alcotest.failf "expected 2 digests, got %d" (List.length ds));
        match Rtrace.top_slow ~n:1 (Rtrace.dump rt) with
        | Ok [ only ] ->
            Alcotest.(check int) "n bounds the digest" 1 only.Rtrace.dg_trace
        | Ok _ | Error _ -> Alcotest.fail "n=1 should keep the slowest");
    case "top_slow rejects a document without traceEvents" (fun () ->
        match Rtrace.top_slow (Json.Obj [ ("nope", Json.Int 1) ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
  ]

(* ------------------------------------------------------------------ *)
(* Propagation: serve and the pool.                                    *)
(* ------------------------------------------------------------------ *)

let demo = "double x = x + x\nmain = double (21 :: Int)\n"

let run_req ?(backend = "tree") ?id src =
  Json.to_line
    (Json.Obj
       ([ ("op", Json.Str "run"); ("src", Json.Str src);
          ("backend", Json.Str backend) ]
       @ match id with Some i -> [ ("id", Json.Int i) ] | None -> []))

(* one millisecond per reading: request latencies in the serve metrics
   are deterministic, so this test isolates the recorder's own (mono)
   clock from the serve clock *)
let ticking () =
  let n = ref 0 in
  fun () ->
    incr n;
    float_of_int !n *. 0.001

let trace_of resp =
  match Json.member "trace" resp with
  | Some (Json.Int t) when t > 0 -> t
  | _ -> Alcotest.failf "response without trace: %s" (Json.to_line resp)

(* Check one request's timeline in [evs]: exactly one [request/<op>]
   root, every other event nested inside it, and the top-level phase
   durations summing to at most the root's. Returns the root's
   duration (us). Tolerance covers the ns -> us float conversion. *)
let check_timeline evs tr =
  let mine = List.filter (fun e -> ev_trace e = tr) evs in
  let roots, rest = List.partition is_root mine in
  match roots with
  | [ root ] ->
      let t0 = ev_num "ts" root in
      let t1 = t0 +. ev_num "dur" root in
      List.iter
        (fun e ->
          if ev_name e <> "queue" && ev_name e <> "emit" then begin
            Alcotest.(check bool)
              (ev_name e ^ " starts inside the root span")
              true
              (ev_num "ts" e >= t0 -. 0.5);
            Alcotest.(check bool)
              (ev_name e ^ " ends inside the root span")
              true
              (ev_num "ts" e +. ev_num "dur" e <= t1 +. 0.5)
          end)
        rest;
      let phase_sum =
        List.fold_left
          (fun acc e -> if is_phase e then acc +. ev_num "dur" e else acc)
          0. rest
      in
      Alcotest.(check bool) "phase durations sum within the request's" true
        (phase_sum <= ev_num "dur" root +. 1.0);
      ev_num "dur" root
  | _ ->
      Alcotest.failf "trace %d: expected one request/ root, got %d" tr
        (List.length roots)

let propagation_cases =
  [
    case "serve: every response carries its trace ID and its events nest \
          inside the request span (both backends)"
      (fun () ->
        let rt = Rtrace.create () in
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            clock = ticking ();
            rtrace = rt;
          }
        in
        let t = Serve.create ~config () in
        let traces =
          List.map
            (fun backend ->
              trace_of (decode (Serve.handle_line t (run_req ~backend demo))))
            [ "tree"; "vm" ]
        in
        Alcotest.(check bool) "distinct IDs" true
          (List.length (List.sort_uniq compare traces) = 2);
        let evs = events_of_dump (Rtrace.dump rt) in
        List.iter
          (fun tr ->
            let dur = check_timeline evs tr in
            Alcotest.(check bool) "request took time" true (dur > 0.))
          traces);
    case "serve: an unsampled request still gets an ID but records no \
          events"
      (fun () ->
        let rt = Rtrace.create ~sample:2 () in
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            rtrace = rt;
          }
        in
        let t = Serve.create ~config () in
        let tr1 =
          trace_of (decode (Serve.handle_line t (run_req ~id:1 demo)))
        in
        let tr2 =
          trace_of (decode (Serve.handle_line t (run_req ~id:2 demo)))
        in
        let evs = events_of_dump (Rtrace.dump rt) in
        Alcotest.(check bool) "sampled request recorded" true
          (List.exists (fun e -> ev_trace e = tr1) evs);
        Alcotest.(check bool) "unsampled request silent" false
          (List.exists (fun e -> ev_trace e = tr2) evs));
    case "pool: 4 workers, queue and emit events share each request's ID"
      (fun () ->
        let rt = Rtrace.create () in
        let config =
          {
            Serve.default_config with
            Serve.sleep = (fun _ -> ());
            clock = ticking ();
            rtrace = rt;
          }
        in
        let lines =
          Array.init 8 (fun i ->
              run_req ~id:i
                ~backend:(if i mod 2 = 0 then "tree" else "vm")
                demo)
        in
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
        let summary =
          Pool.run ~workers:4 ~config ~next
            ~emit:(fun l -> out := l :: !out)
            ()
        in
        Alcotest.(check int) "all answered" 8
          (Serve.requests summary.Pool.metrics);
        let traces = List.map (fun l -> trace_of (decode l)) !out in
        Alcotest.(check int) "8 distinct trace IDs" 8
          (List.length (List.sort_uniq compare traces));
        let evs = events_of_dump (Rtrace.dump rt) in
        List.iter
          (fun tr ->
            ignore (check_timeline evs tr);
            let mine = List.filter (fun e -> ev_trace e = tr) evs in
            Alcotest.(check bool) "queue wait recorded" true
              (List.exists (fun e -> ev_name e = "queue") mine);
            Alcotest.(check bool) "emit recorded" true
              (List.exists (fun e -> ev_name e = "emit") mine))
          traces);
  ]

let tests =
  [
    ("rtrace recorder", recorder_cases);
    ("rtrace digest", digest_cases);
    ("rtrace propagation", propagation_cases);
  ]
