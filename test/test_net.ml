(** The TCP front end: connection supervision, deadlines, admission,
    drain, probes — plus the satellites that ride along (monotonic
    clock, shared cache under concurrency, [bounded_next] edge cases
    over real sockets).

    Every server here binds port 0 (ephemeral) on loopback and is torn
    down through the same graceful-drain path the CLI uses, so each
    case also re-checks the two global invariants: the pool answers
    exactly one response per request read, and the merged registry
    keeps the per-op latency counts summing to [serve/requests] with
    the [net/...] instruments merged in. *)

open Helpers
module Serve = Typeclasses.Serve
module Pipeline = Typeclasses.Pipeline
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Inject = Tc_resilience.Inject
module Net = Tc_net.Net
module Pool = Tc_scale.Pool
module Cache = Tc_scale.Cache
module Loadgen = Tc_scale.Loadgen
module Mono = Tc_support.Mono

let counter_of m name =
  match List.assoc_opt name (Metrics.counters m) with
  | Some n -> n
  | None -> 0

let fast_config () =
  { Serve.default_config with Serve.sleep = (fun _ -> ()) }

(* Run a server on an ephemeral loopback port, hand the client body its
   port, then drain and return (body result, pool summary). *)
let with_server ?max_conns ?(read_timeout_ms = 10_000)
    ?(idle_timeout_ms = 60_000) ?(drain_timeout_ms = 10_000)
    ?on_drain_deadline ?(workers = 1) ?(config = fast_config ()) f =
  let srv =
    Net.create ?max_conns ~read_timeout_ms ~idle_timeout_ms ~drain_timeout_ms
      ?on_drain_deadline ~host:"127.0.0.1" ~port:0 ()
  in
  let summary = ref None in
  let thr =
    Thread.create
      (fun () -> summary := Some (Net.run srv ~workers ~config ()))
      ()
  in
  let fin () =
    Net.drain srv;
    Thread.join thr
  in
  Fun.protect ~finally:fin @@ fun () ->
  let v = f srv (Net.port srv) in
  fin ();
  match !summary with
  | Some s -> (v, s)
  | None -> Alcotest.fail "server thread produced no summary"

(* ---- a minimal NDJSON client ---- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd)

let close_client fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

let recv ic = try Some (input_line ic) with End_of_file | Sys_error _ -> None

let req ?id op extra =
  let fields =
    [ ("op", Json.Str op) ]
    @ (match id with Some i -> [ ("id", Json.Int i) ] | None -> [])
    @ extra
  in
  Json.to_line (Json.Obj fields) ^ "\n"

let ping ?id () = req ?id "ping" []
let demo = "double :: Num a => a -> a\ndouble x = x + x\nmain = double 21\n"

let got = function
  | Some l -> l
  | None -> Alcotest.fail "connection closed before a response arrived"

(* ------------------------------------------------------------------ *)
(* Request/response over TCP.                                          *)
(* ------------------------------------------------------------------ *)

let e2e_cases =
  [
    case "requests answer in order on their own connection" (fun () ->
        let (a, b), summary =
          with_server @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (ping ~id:1 ());
          send fd (req ~id:2 "run" [ ("src", Json.Str demo) ]);
          (* bind in sequence: tuple components evaluate right-to-left *)
          let a = got (recv ic) in
          let b = got (recv ic) in
          (a, b)
        in
        Alcotest.(check bool) "ping ok" true (contains ~needle:"\"ok\":true" a);
        Alcotest.(check bool) "ping first" true (contains ~needle:"\"id\":1" a);
        Alcotest.(check bool) "run ok" true (contains ~needle:"\"ok\":true" b);
        Alcotest.(check bool) "run second" true (contains ~needle:"\"id\":2" b);
        Alcotest.(check bool) "run answered 42" true (contains ~needle:"42" b);
        Alcotest.(check int) "two requests" 2
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check int) "one conn accepted" 1
          (counter_of summary.Pool.metrics "net/accepted");
        Alcotest.(check bool) "invariant holds with net/* merged in" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "a closed-loop client against a multi-worker pool never deadlocks"
      (fun () ->
        (* a client that awaits each response before sending the next
           request: with workers > 1 this once deadlocked, the pool
           coordinator blocked in [next] while the response sat in the
           reorder buffer with nobody left to emit it *)
        let n, summary =
          with_server ~workers:2 @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          let served = ref 0 in
          for i = 1 to 5 do
            send fd (ping ~id:i ());
            let resp = got (recv ic) in
            if contains ~needle:(Printf.sprintf "\"id\":%d" i) resp then
              incr served
          done;
          !served
        in
        Alcotest.(check int) "every round trip answered in turn" 5 n;
        Alcotest.(check int) "pool saw all five" 5
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check bool) "invariant holds" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "health and ready probes answer over the socket" (fun () ->
        let (h, r), _ =
          with_server @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (req ~id:7 "health" []);
          send fd (req ~id:8 "ready" []);
          let h = got (recv ic) in
          let r = got (recv ic) in
          (h, r)
        in
        Alcotest.(check bool) "health ok" true
          (contains ~needle:"\"status\":\"ok\"" h);
        Alcotest.(check bool) "health reports uptime" true
          (contains ~needle:"uptime_ms" h);
        Alcotest.(check bool) "ready before drain" true
          (contains ~needle:"\"ready\":true" r));
    case "ready reports false when the config says not ready" (fun () ->
        (* the Net layer composes its own "not draining, not lame-duck"
           predicate with the caller's; the op itself just reports the
           composed verdict — exercise the reporting seam directly *)
        let t =
          Serve.create
            ~config:
              { Serve.default_config with Serve.ready = (fun () -> false) }
            ()
        in
        let resp = Serve.handle_line t {|{"op":"ready"}|} in
        Alcotest.(check bool) "still ok:true" true
          (contains ~needle:"\"ok\":true" resp);
        Alcotest.(check bool) "ready:false" true
          (contains ~needle:"\"ready\":false" resp));
    case "drain flips the draining flag immediately" (fun () ->
        let (), _ =
          with_server @@ fun srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (ping ());
          ignore (got (recv ic));
          Alcotest.(check bool) "not draining yet" false (Net.draining srv);
          Net.drain srv;
          Alcotest.(check bool) "draining after signal" true (Net.draining srv)
        in
        ());
    case "CRLF request lines are tolerated" (fun () ->
        let a, _ =
          with_server @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd "{\"op\":\"ping\",\"id\":3}\r\n";
          got (recv ic)
        in
        Alcotest.(check bool) "ok" true (contains ~needle:"\"ok\":true" a);
        Alcotest.(check bool) "id echoed" true (contains ~needle:"\"id\":3" a));
    case "a line split across TCP segments reassembles" (fun () ->
        let a, _ =
          with_server @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          let line = ping ~id:4 () in
          let half = String.length line / 2 in
          send fd (String.sub line 0 half);
          Thread.delay 0.15;
          send fd (String.sub line half (String.length line - half));
          got (recv ic)
        in
        Alcotest.(check bool) "ok" true (contains ~needle:"\"ok\":true" a);
        Alcotest.(check bool) "id echoed" true (contains ~needle:"\"id\":4" a));
    case "an oversized line answers bad-request, then the connection keeps \
          working"
      (fun () ->
        let config =
          { (fast_config ()) with Serve.max_line_bytes = 64 }
        in
        let (big, after), summary =
          with_server ~config @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (String.make 256 'x' ^ "\n");
          send fd (ping ~id:5 ());
          let big = got (recv ic) in
          let after = got (recv ic) in
          (big, after)
        in
        Alcotest.(check bool) "oversized classified" true
          (contains ~needle:"oversized" big);
        Alcotest.(check bool) "bad-request class" true
          (contains ~needle:"bad-request" big);
        Alcotest.(check bool) "same connection still serves" true
          (contains ~needle:"\"id\":5" after);
        Alcotest.(check bool) "invariant counts the oversized request" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "snapshot_every over TCP: responses stay paired, snapshots arrive \
          out-of-band"
      (fun () ->
        (* A spontaneous metrics-snapshot line used to be an [emit] with
           no [next] pop behind it — it crashed the routing FIFO
           (Queue.Empty) on the Nth request, so [Net.run] forced it off.
           Now the pool routes snapshots out-of-band and the front end
           broadcasts them: responses must still pair with requests,
           [and] the snapshot lines must actually reach the socket. *)
        let config = { (fast_config ()) with Serve.snapshot_every = 1 } in
        let (replies, snapshots), summary =
          with_server ~config @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          (* Read until all three responses are in; snapshot broadcasts
             interleave on the same socket as separate lines. *)
          let replies = ref [] and snapshots = ref [] in
          List.iter
            (fun i ->
              send fd (ping ~id:i ());
              let rec read_response () =
                let line = got (recv ic) in
                if contains ~needle:"metrics-snapshot" line then begin
                  snapshots := line :: !snapshots;
                  read_response ()
                end
                else replies := line :: !replies
              in
              read_response ())
            [ 1; 2; 3 ];
          (* Snapshots may trail their request's response; three were
             queued (snapshot_every = 1), so if none interleaved yet a
             blocking read is guaranteed to find one. *)
          while !snapshots = [] do
            let line = got (recv ic) in
            if contains ~needle:"metrics-snapshot" line then
              snapshots := line :: !snapshots
          done;
          (List.rev !replies, List.rev !snapshots)
        in
        List.iteri
          (fun i reply ->
            Alcotest.(check bool) "response routed to its request" true
              (contains ~needle:(Printf.sprintf "\"id\":%d" (i + 1)) reply);
            Alcotest.(check bool) "no snapshot payload inside a response" false
              (contains ~needle:"metrics-snapshot" reply))
          replies;
        Alcotest.(check bool) "snapshots arrive as out-of-band lines" true
          (List.length snapshots >= 1);
        List.iter
          (fun snap ->
            Alcotest.(check bool) "snapshot line is tagged" true
              (contains ~needle:"\"event\":\"metrics-snapshot\"" snap);
            Alcotest.(check bool) "snapshot line carries no response id" false
              (contains ~needle:"\"ok\":" snap))
          snapshots;
        Alcotest.(check int) "three requests" 3
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check bool) "invariant holds" true
          (Loadgen.invariant_holds summary.Pool.metrics));
  ]

(* ------------------------------------------------------------------ *)
(* Supervision: admission, deadlines, isolation, drain.                *)
(* ------------------------------------------------------------------ *)

let supervision_cases =
  [
    case "past max-conns a new arrival is refused with one overloaded line"
      (fun () ->
        let (refusal, still), summary =
          with_server ~max_conns:1 @@ fun _srv port ->
          let fd1, ic1 = connect port in
          Fun.protect ~finally:(fun () -> close_client fd1) @@ fun () ->
          send fd1 (ping ~id:1 ());
          ignore (got (recv ic1));
          let fd2, ic2 = connect port in
          Fun.protect ~finally:(fun () -> close_client fd2) @@ fun () ->
          let refusal = got (recv ic2) in
          let eof = recv ic2 in
          Alcotest.(check bool) "refused conn then closes" true (eof = None);
          (* the admitted connection is unaffected *)
          send fd1 (ping ~id:2 ());
          (refusal, got (recv ic1))
        in
        Alcotest.(check bool) "overloaded class" true
          (contains ~needle:"\"class\":\"overloaded\"" refusal);
        Alcotest.(check bool) "admitted conn still served" true
          (contains ~needle:"\"id\":2" still);
        Alcotest.(check int) "one rejection counted" 1
          (counter_of summary.Pool.metrics "net/rejected");
        Alcotest.(check int) "one acceptance counted" 1
          (counter_of summary.Pool.metrics "net/accepted"));
    case "a connection quiet past the idle deadline is reaped" (fun () ->
        let eof, summary =
          with_server ~idle_timeout_ms:100 @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          (* never send a byte: the reaper should shut us down *)
          recv ic
        in
        Alcotest.(check bool) "reaped to EOF" true (eof = None);
        Alcotest.(check int) "reap counted" 1
          (counter_of summary.Pool.metrics "net/reaped"));
    case "a slowloris mid-line is reaped without touching its neighbor"
      (fun () ->
        let (eof, neighbor), summary =
          with_server ~read_timeout_ms:100 @@ fun _srv port ->
          let slow_fd, slow_ic = connect port in
          Fun.protect ~finally:(fun () -> close_client slow_fd) @@ fun () ->
          send slow_fd "{\"op\":\"pi";
          (* no newline, ever *)
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          let eof = recv slow_ic in
          send fd (ping ~id:9 ());
          (eof, got (recv ic))
        in
        Alcotest.(check bool) "slowloris reaped to EOF" true (eof = None);
        Alcotest.(check bool) "neighbor unaffected" true
          (contains ~needle:"\"id\":9" neighbor);
        Alcotest.(check int) "reap counted" 1
          (counter_of summary.Pool.metrics "net/reaped"));
    case "a vanished client drops only its own responses" (fun () ->
        let mine, summary =
          with_server @@ fun _srv port ->
          let fd1, _ic1 = connect port in
          send fd1 (req ~id:1 "run" [ ("src", Json.Str demo) ]);
          (* vanish with the response still in flight *)
          close_client fd1;
          let fd2, ic2 = connect port in
          Fun.protect ~finally:(fun () -> close_client fd2) @@ fun () ->
          send fd2 (ping ~id:2 ());
          got (recv ic2)
        in
        Alcotest.(check bool) "the survivor gets its own response" true
          (contains ~needle:"\"id\":2" mine);
        Alcotest.(check bool) "the survivor never sees the orphan" false
          (contains ~needle:"\"id\":1" mine);
        (* pool accounting never loses the orphaned request *)
        Alcotest.(check int) "both requests processed" 2
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check int) "both responses accounted" 2
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check bool) "invariant holds" true
          (Loadgen.invariant_holds summary.Pool.metrics));
    case "drain finishes requests already read, then exits" (fun () ->
        let deadline_fired = ref false in
        let resp, summary =
          with_server ~on_drain_deadline:(fun () -> deadline_fired := true)
          @@ fun srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (req ~id:1 "run" [ ("src", Json.Str demo) ]);
          (* let the reader ingest it, then pull the plug *)
          Thread.delay 0.2;
          Net.drain srv;
          got (recv ic)
        in
        Alcotest.(check bool) "in-flight response still delivered" true
          (contains ~needle:"\"id\":1" resp);
        Alcotest.(check int) "request counted" 1
          (Serve.requests summary.Pool.metrics);
        Alcotest.(check bool) "clean drain never fires the deadline" false
          !deadline_fired);
    case "binding a busy port raises Bind_error; port 0 is ephemeral"
      (fun () ->
        let srv = Net.create ~host:"127.0.0.1" ~port:0 () in
        let p = Net.port srv in
        Alcotest.(check bool) "ephemeral port assigned" true (p > 0);
        (match Net.create ~host:"127.0.0.1" ~port:p () with
        | exception Net.Bind_error m ->
            Alcotest.(check bool) "diagnostic names the address" true
              (contains ~needle:(string_of_int p) m)
        | _ -> Alcotest.fail "second bind should have failed");
        (* tear the first listener down through the normal path *)
        Net.drain srv;
        ignore (Net.run srv ~config:(fast_config ()) ()));
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection at the three net points.                            *)
(* ------------------------------------------------------------------ *)

let armed points f =
  Inject.arm (Inject.plan ~rate:1.0 ~points ());
  Fun.protect ~finally:Inject.disarm f

let inject_cases =
  [
    case "accept-fail: the listener backs off and keeps accepting"
      (fun () ->
        let resp, summary =
          with_server @@ fun _srv port ->
          armed [ Inject.Accept_fail ] (fun () ->
              (* the kernel completes the handshake (backlog); the
                 server's accept keeps faulting until we disarm *)
              let fd, ic = connect port in
              Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
              Thread.delay 0.3;
              Inject.disarm ();
              send fd (ping ~id:1 ());
              got (recv ic))
        in
        Alcotest.(check bool) "served after the faults stop" true
          (contains ~needle:"\"id\":1" resp);
        Alcotest.(check bool) "accept failures counted" true
          (counter_of summary.Pool.metrics "net/accept_fails" >= 1));
    case "conn-drop: the connection dies abruptly, neighbors survive"
      (fun () ->
        let (eof, neighbor), summary =
          with_server @@ fun _srv port ->
          let eof =
            armed [ Inject.Conn_drop ] (fun () ->
                let fd, ic = connect port in
                Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
                send fd (ping ~id:1 ());
                recv ic)
          in
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          send fd (ping ~id:2 ());
          (eof, got (recv ic))
        in
        Alcotest.(check bool) "dropped without a response" true (eof = None);
        Alcotest.(check bool) "drop counted" true
          (counter_of summary.Pool.metrics "net/dropped" >= 1);
        Alcotest.(check bool) "neighbor served after disarm" true
          (contains ~needle:"\"id\":2" neighbor));
    case "slow-read: the stalled connection goes through the reap path"
      (fun () ->
        let eof, summary =
          with_server @@ fun _srv port ->
          armed [ Inject.Slow_read ] (fun () ->
              let fd, ic = connect port in
              Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
              send fd (ping ());
              recv ic)
        in
        Alcotest.(check bool) "stall reaped to EOF" true (eof = None);
        Alcotest.(check bool) "reap counted" true
          (counter_of summary.Pool.metrics "net/reaped" >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* bounded_next edge cases (the shared line-cap semantics).            *)
(* ------------------------------------------------------------------ *)

let chan_of_string s f =
  let path = Filename.temp_file "mhc_net" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () -> f ic

let bounded_next_cases =
  [
    case "bounded_next strips CRLF off in-cap lines" (fun () ->
        chan_of_string "{\"op\":\"ping\"}\r\n{\"op\":\"ping\"}\n" @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:64 ic in
        Alcotest.(check (option string)) "CR stripped"
          (Some "{\"op\":\"ping\"}") (next ());
        Alcotest.(check (option string)) "LF-only unchanged"
          (Some "{\"op\":\"ping\"}") (next ());
        Alcotest.(check (option string)) "then EOF" None (next ()));
    case "bounded_next keeps the final unterminated line" (fun () ->
        chan_of_string "{\"op\":\"ping\"}" @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:64 ic in
        Alcotest.(check (option string)) "EOF flushes the tail"
          (Some "{\"op\":\"ping\"}") (next ());
        Alcotest.(check (option string)) "then EOF" None (next ()));
    case "CR stripping never demotes an oversized line back under the cap"
      (fun () ->
        (* 9 bytes kept of an over-cap line whose last kept byte is CR:
           stripping it would shrink the line to exactly max_bytes and
           misclassify it as plain invalid JSON instead of oversized *)
        let cap = 8 in
        chan_of_string (String.make cap 'x' ^ "\r___more\n") @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:cap ic in
        match next () with
        | Some line ->
            Alcotest.(check bool) "still over the cap" true
              (String.length line > cap)
        | None -> Alcotest.fail "expected the truncated line");
    case "bounded_next reads a line longer than one read, capped or not"
      (fun () ->
        let big = String.init 200_000 (fun i -> Char.chr (97 + (i mod 26))) in
        chan_of_string (big ^ "\nshort\n" ^ big) @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:0 ic in
        Alcotest.(check (option string)) "uncapped" (Some big) (next ());
        Alcotest.(check (option string)) "next line" (Some "short") (next ());
        Alcotest.(check (option string)) "unterminated tail" (Some big)
          (next ());
        Alcotest.(check (option string)) "then EOF" None (next ());
        chan_of_string (big ^ "\r\nshort\r\n" ^ big) @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:100_000 ic in
        Alcotest.(check (option string)) "capped to cap + 1"
          (Some (String.sub big 0 100_001)) (next ());
        Alcotest.(check (option string)) "next line" (Some "short") (next ());
        Alcotest.(check (option string)) "capped unterminated tail"
          (Some (String.sub big 0 100_001)) (next ());
        Alcotest.(check (option string)) "then EOF" None (next ()));
    case "bounded_next strips a CR read apart from its LF" (fun () ->
        (* a regular file fills whole reads, so some of these put the CR
           last in one read and the LF first in the next *)
        for len = 65_530 to 65_540 do
          let body = String.make len 'x' in
          chan_of_string (body ^ "\r\nnext\r\n") @@ fun ic ->
          let next = Serve.bounded_next ~max_bytes:0 ic in
          Alcotest.(check (option string)) "line" (Some body) (next ());
          Alcotest.(check (option string)) "next" (Some "next") (next ())
        done;
        (* a pipe delivers the CR and the LF in separate reads *)
        let r, w = Unix.pipe ~cloexec:true () in
        let ic = Unix.in_channel_of_descr r in
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
        write "abc\r";
        let writer =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              write "\ndef\n";
              Unix.close w)
            ()
        in
        let next = Serve.bounded_next ~max_bytes:64 ic in
        Alcotest.(check (option string)) "CR stripped" (Some "abc") (next ());
        Alcotest.(check (option string)) "next" (Some "def") (next ());
        Alcotest.(check (option string)) "then EOF" None (next ());
        Thread.join writer);
    case "bounded_next returns many lines of one read in order" (fun () ->
        let lines = List.init 1000 (Printf.sprintf "{\"id\":%d}") in
        chan_of_string (String.concat "\n" lines) @@ fun ic ->
        let next = Serve.bounded_next ~max_bytes:16 ic in
        let rec drain acc =
          match next () with None -> List.rev acc | Some l -> drain (l :: acc)
        in
        Alcotest.(check (list string)) "all lines" lines (drain []));
  ]

(* ------------------------------------------------------------------ *)
(* Satellites: monotonic clock, shared cache, socket load generator.   *)
(* ------------------------------------------------------------------ *)

let satellite_cases =
  [
    case "the monotonic clock never goes backwards" (fun () ->
        let prev = ref (Mono.now_ns ()) in
        for _ = 1 to 10_000 do
          let t = Mono.now_ns () in
          if t < !prev then Alcotest.fail "monotonic clock went backwards";
          prev := t
        done;
        let s0 = Mono.now_s () in
        Thread.delay 0.01;
        let s1 = Mono.now_s () in
        Alcotest.(check bool) "now_s advances with real time" true
          (s1 -. s0 >= 0.005));
    case "the cache stays consistent under concurrent domains"
      (fun () ->
        let c = Cache.create () in
        let domains = 4 and per = 8 in
        let src d i =
          Printf.sprintf "main = %d + %d\n" (100 * (d + 1)) i
        in
        let opts = Pipeline.default_options in
        let workers =
          List.init domains (fun d ->
              Domain.spawn (fun () ->
                  for i = 0 to per - 1 do
                    ignore
                      (Cache.compile_run c ~opts ~passes:[] ~src:(src d i))
                  done))
        in
        List.iter Domain.join workers;
        let total = domains * per in
        Alcotest.(check int) "every distinct program cached" total
          (Cache.entries c);
        Alcotest.(check int) "all first compiles were misses" total
          (counter_of (Cache.metrics c) "scale/cache/misses");
        (* a second full sweep hits every entry *)
        for d = 0 to domains - 1 do
          for i = 0 to per - 1 do
            ignore (Cache.compile_run c ~opts ~passes:[] ~src:(src d i))
          done
        done;
        Alcotest.(check int) "second sweep all hits" total
          (counter_of (Cache.metrics c) "scale/cache/hits"));
    case "the socket load generator reports over a live server" (fun () ->
        let report, _ =
          with_server @@ fun _srv port ->
          Loadgen.run_socket ~clients:2 ~requests:6 ~host:"127.0.0.1" ~port ()
        in
        Alcotest.(check string) "socket mode" "socket"
          report.Loadgen.mode;
        Alcotest.(check int) "cold phase all ok" 6
          report.Loadgen.cold.Loadgen.ph_ok;
        Alcotest.(check int) "hot phase all ok" 6
          report.Loadgen.hot.Loadgen.ph_ok;
        Alcotest.(check bool) "invariant verified from the in-band snapshot"
          true report.Loadgen.invariant_ok;
        Alcotest.(check bool) "cache hits observed in the hot phase" true
          (report.Loadgen.cache_hits >= 0));
  ]

(* ------------------------------------------------------------------ *)
(* One live view over TCP.                                             *)
(* ------------------------------------------------------------------ *)

let less name n l =
  List.filter_map
    (fun (k, v) ->
      if k <> name then Some (k, v) else if v > n then Some (k, v - n) else None)
    l

let json_ints j =
  match j with
  | Some (Json.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Int n -> (k, n)
          | _ -> (k, Option.value ~default:0 (Option.bind (Json.member "count" v) Json.to_int)))
        kvs
  | _ -> Alcotest.fail "not an object"

let view_cases =
  [
    case "a live metrics equals the drained view, less itself and its \
          connection"
      (fun () ->
        let live, summary =
          with_server ~workers:2 @@ fun _srv port ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          for i = 1 to 20 do
            send fd
              (req ~id:i "check"
                 [ ("src", Json.Str (Printf.sprintf "k%d = %d + 1" i i)) ]);
            ignore (got (recv ic))
          done;
          send fd (req "metrics" []);
          match Json.parse (got (recv ic)) with
          | Ok r -> Option.get (Json.member "metrics" r)
          | Error e -> Alcotest.fail e
        in
        let drained = Metrics.snapshot summary.Pool.metrics in
        let part name j = List.sort compare (json_ints (Json.member name j)) in
        let counters = part "counters" and hists = part "histograms" in
        let gauges j =
          less "gc/major_heap_words" max_int (part "gauges" j)
        in
        Alcotest.(check (list (pair string int))) "counters, less itself"
          (less "serve/requests" 1 (counters drained))
          (counters live);
        Alcotest.(check (option int)) "the listener counted" (Some 1)
          (List.assoc_opt "net/accepted" (counters live));
        (* the metrics request's own connection is open while it reads
           the view, and closed (its lifetime observed) at the drain *)
        Alcotest.(check (list (pair string int))) "gauges, less the connection"
          (less "net/conns" max_int (gauges drained))
          (less "net/conns" max_int (gauges live));
        Alcotest.(check (option int)) "open while reading" (Some 1)
          (List.assoc_opt "net/conns" (gauges live));
        Alcotest.(check (list (pair string int)))
          "histogram counts, less itself and its connection"
          (less "net/conn_lifetime_ms" 1
             (less "serve/latency/metrics" 1 (hists drained)))
          (hists live));
  ]

(* ------------------------------------------------------------------ *)
(* One admission path: the reader thread submits into the pool.        *)
(* ------------------------------------------------------------------ *)

(* Every request takes at least [ms]: its first attempt hits an armed
   transient fault, and the retry waits out a real [ms] backoff (and
   faults again, so the request answers [transient]). *)
let slow_config ms =
  { Serve.default_config with Serve.retries = 1; backoff_ms = float_of_int ms }

let admission_cases =
  [
    case "the read deadline does not count the time a request is handled"
      (fun () ->
        let (first, second), summary =
          with_server ~read_timeout_ms:300 ~config:(slow_config 600)
          @@ fun _srv port ->
          armed [ Inject.Serve_transient ] @@ fun () ->
          let fd, ic = connect port in
          Fun.protect ~finally:(fun () -> close_client fd) @@ fun () ->
          let next = ping ~id:2 () in
          let half = String.length next / 2 in
          (* one complete slow request, and half of the next line *)
          send fd (ping ~id:1 () ^ String.sub next 0 half);
          let first = got (recv ic) in
          send fd (String.sub next half (String.length next - half));
          let second = got (recv ic) in
          (first, second)
        in
        Alcotest.(check bool) "first answered" true
          (contains ~needle:"\"id\":1" first);
        Alcotest.(check bool) "second answered" true
          (contains ~needle:"\"id\":2" second);
        Alcotest.(check int) "nobody reaped" 0
          (counter_of summary.Pool.metrics "net/reaped"));
    case "one worker: a pipelining connection does not starve another"
      (fun () ->
        let (b_at, a_last_at), summary =
          with_server ~config:(slow_config 100) @@ fun _srv port ->
          armed [ Inject.Serve_transient ] @@ fun () ->
          let fd_a, ic_a = connect port in
          let fd_b, ic_b = connect port in
          Fun.protect
            ~finally:(fun () ->
              close_client fd_a;
              close_client fd_b)
          @@ fun () ->
          send fd_a (String.concat "" (List.init 10 (fun i -> ping ~id:i ())));
          let a_last_at = ref 0. in
          let reader_a =
            Thread.create
              (fun () ->
                for _ = 1 to 10 do
                  ignore (got (recv ic_a))
                done;
                a_last_at := Mono.now_s ())
              ()
          in
          Thread.delay 0.05;
          send fd_b (ping ~id:100 ());
          let b = got (recv ic_b) in
          let b_at = Mono.now_s () in
          Thread.join reader_a;
          Alcotest.(check bool) "B's own response" true
            (contains ~needle:"\"id\":100" b);
          (b_at, !a_last_at)
        in
        Alcotest.(check bool) "B answered before A's last response" true
          (b_at < a_last_at);
        Alcotest.(check int) "every request answered" 11
          (Serve.requests summary.Pool.metrics));
  ]

let tests =
  [
    ("net one admission path", admission_cases);
    ("net over tcp", e2e_cases);
    ("net supervision", supervision_cases);
    ("net injection", inject_cases);
    ("net bounded lines", bounded_next_cases);
    ("net satellites", satellite_cases);
    ("net live view", view_cases);
  ]
