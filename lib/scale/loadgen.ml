(** Load generator (see the interface for the phase design). *)

module Serve = Typeclasses.Serve
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Mono = Tc_support.Mono

type phase = {
  ph_requests : int;
  ph_elapsed_s : float;
  ph_rps : float;
  ph_p50_us : int;
  ph_p99_us : int;
  ph_ok : int;
  ph_failed : int;
}

type report = {
  clients : int;
  requests : int;
  workers : int;
  op : string;
  mode : string;  (* "inproc" (direct Pool.run) or "socket" (TCP) *)
  cold : phase;
  hot : phase;
  speedup : float;
  invariant_ok : bool;
  cache_hits : int;
  cache_misses : int;
  shed : int;
  worker_crashes : int;
  restarts : int;
}

(* A small but real program — classes, dictionaries, a compile that does
   actual inference work — made unique per variant through a padding
   binding, so cold-phase requests can never collide in the cache. *)
let source ~variant =
  Printf.sprintf
    "double :: Num a => a -> a\n\
     double x = x + x\n\
     pad%d = %d\n\
     main = double 21\n"
    variant variant

let request ~op ~variant =
  Json.to_line
    (Json.Obj
       [
         ("op", Json.Str op);
         ("id", Json.Int variant);
         ("src", Json.Str (source ~variant));
       ])

(* Total latency observations vs. the request counter — the serve
   telemetry invariant, on any registry (including a merged one). *)
let invariant_holds (m : Metrics.t) =
  Metrics.hist_count (Serve.latency_total m) = Serve.requests m

(* rank = ceil (pct * n / 100), at least 1; exact, never interpolated *)
let quantile_us (lat : int array) pct =
  let xs = Array.of_list (List.filter (fun v -> v >= 0) (Array.to_list lat)) in
  let n = Array.length xs in
  if n = 0 then 0
  else begin
    Array.sort compare xs;
    xs.(max 1 (((pct * n) + 99) / 100) - 1)
  end

(* Each line is timed from the moment the driver hands it to the pool to
   the moment its response comes back. Responses come back in admission
   order, so response [k] answers line [k]: the start times are a FIFO
   indexed by admission order. The pool's lock orders each start before
   its response's read of it. *)
let run_phase ~workers ~config (lines : string array) =
  let n = Array.length lines in
  let started = Array.make n 0 and lat = Array.make n (-1) in
  let i = ref 0 and answered = ref 0 in
  let next () =
    if !i >= n then None
    else begin
      let l = lines.(!i) in
      started.(!i) <- Mono.now_ns ();
      incr i;
      Some l
    end
  in
  let emit _ =
    let k = !answered in
    lat.(k) <- (Mono.now_ns () - started.(k)) / 1000;
    answered := k + 1
  in
  let t0 = Mono.now_s () in
  let summary = Pool.run ~workers ~config ~next ~emit () in
  let dt = Mono.now_s () -. t0 in
  let m = summary.Pool.metrics in
  ( {
      ph_requests = n;
      ph_elapsed_s = dt;
      ph_rps = (if dt > 0. then float_of_int n /. dt else 0.);
      ph_p50_us = quantile_us lat 50;
      ph_p99_us = quantile_us lat 99;
      ph_ok = Serve.requests m - Serve.failed m;
      ph_failed = Serve.failed m;
    },
    summary )

let run ?(clients = 4) ?(requests = 64) ?(workers = 1) ?(op = `Run)
    ?(cache_mb = 64) ?(verify_every = 0) ?(deadline_ms = 0) () =
  let clients = max 1 clients in
  let requests = max clients requests in
  let op_name = match op with `Run -> "run" | `Check -> "check" in
  let cache =
    Cache.create ~max_bytes:(cache_mb * 1024 * 1024) ~verify_every ()
  in
  let config =
    {
      Serve.default_config with
      Serve.default_deadline_ms = deadline_ms;
      Serve.hooks =
        {
          Serve.no_hooks with
          Serve.compile =
            Some
              (fun ~opts ~passes ~src ->
                Cache.compile_run cache ~opts ~passes ~src);
          check = Some (fun ~opts ~src -> Cache.check cache ~opts ~src);
        };
    }
  in
  (* Cold: request [i] carries variant [i] — every source distinct.
     Hot: variants cycle over a fresh block of [clients] programs, so
     each misses once (warm-up) and hits thereafter. *)
  let cold_lines =
    Array.init requests (fun i -> request ~op:op_name ~variant:i)
  in
  let hot_lines =
    Array.init requests (fun i ->
        request ~op:op_name ~variant:(requests + (i mod clients)))
  in
  let cold, cold_summary = run_phase ~workers ~config cold_lines in
  let hot, hot_summary = run_phase ~workers ~config hot_lines in
  let counter name =
    match List.assoc_opt name (Metrics.counters (Cache.metrics cache)) with
    | Some n -> n
    | None -> 0
  in
  (* overload/robustness tallies across both phases, so the bench gate
     can bound the shed rate and crash count of a whole run *)
  let by_class cls =
    let of_summary (s : Pool.summary) =
      Option.value ~default:0
        (List.assoc_opt cls (Serve.failures s.Pool.metrics))
    in
    of_summary cold_summary + of_summary hot_summary
  in
  {
    clients;
    requests;
    workers;
    op = op_name;
    mode = "inproc";
    cold;
    hot;
    speedup = (if cold.ph_rps > 0. then hot.ph_rps /. cold.ph_rps else 0.);
    invariant_ok = invariant_holds hot_summary.Pool.metrics;
    cache_hits = counter "scale/cache/hits";
    cache_misses = counter "scale/cache/misses";
    shed = by_class "shed";
    worker_crashes = by_class "worker-crash";
    restarts = cold_summary.Pool.restarts + hot_summary.Pool.restarts;
  }

(* ---- socket mode ---- *)

(* The same cold/hot experiment, but measured end-to-end through a
   running [mhc serve --listen] — socket transit, reader threads and
   the pool's admission included. Each client thread owns one connection and
   runs a closed loop (send, await response, repeat); latencies are
   client-side wall time. Threads write disjoint slots of the shared
   result arrays, so no locking. *)

let connect ~host ~port =
  let inet =
    try Unix.inet_addr_of_string host
    with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (inet, port));
  fd

(* One request over an open connection: send the line, read the
   response line. Returns the raw response. *)
let roundtrip fd ic line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done;
  In_channel.input_line ic

let socket_phase ~clients ~requests ~op ~host ~port ~variant_of () =
  let lat = Array.make requests (-1) in
  let cls = Array.make requests "" in  (* failure class, "" = ok *)
  let client c () =
    try
      let fd = connect ~host ~port in
      let ic = Unix.in_channel_of_descr fd in
      for i = 0 to requests - 1 do
        if i mod clients = c then begin
          let t0 = Mono.now_s () in
          match roundtrip fd ic (request ~op ~variant:(variant_of i)) with
          | None -> cls.(i) <- "connection-lost"
          | Some resp ->
              lat.(i) <- int_of_float ((Mono.now_s () -. t0) *. 1e6);
              cls.(i) <-
                (match Json.parse resp with
                | Ok r when Json.member "ok" r = Some (Json.Bool true) -> ""
                | Ok r -> (
                    match
                      Option.bind (Json.member "error" r)
                        (fun e ->
                          Option.bind (Json.member "class" e) Json.to_str)
                    with
                    | Some c -> c
                    | None -> "unknown")
                | Error _ -> "unparseable")
        end
      done;
      Unix.close fd
    with _ ->
      (* connection refused / reset: every remaining slot of this client
         counts as a failure, latencies stay unrecorded *)
      for i = 0 to requests - 1 do
        if i mod clients = c && lat.(i) < 0 && cls.(i) = "" then
          cls.(i) <- "connection-lost"
      done
  in
  let t0 = Mono.now_s () in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  let dt = Mono.now_s () -. t0 in
  let ok = Array.fold_left (fun n c -> if c = "" then n + 1 else n) 0 cls in
  ( {
      ph_requests = requests;
      ph_elapsed_s = dt;
      ph_rps = (if dt > 0. then float_of_int requests /. dt else 0.);
      ph_p50_us = quantile_us lat 50;
      ph_p99_us = quantile_us lat 99;
      ph_ok = ok;
      ph_failed = requests - ok;
    },
    cls )

(* Pull the server-side registry through the in-band [metrics] op and
   check the serve invariant on the snapshot JSON: the per-op latency
   counts must sum exactly to [serve/requests]. In pooled mode this is
   the handling worker's view (plus the shared pool/net/cache
   registries) — the invariant holds per worker, so it must hold
   here. *)
let snapshot_probe ~host ~port =
  match
    let fd = connect ~host ~port in
    let ic = Unix.in_channel_of_descr fd in
    let r = roundtrip fd ic (Json.to_line (Json.Obj [ ("op", Json.Str "metrics") ])) in
    Unix.close fd;
    r
  with
  | None | (exception _) -> None
  | Some resp -> (
      match Json.parse resp with
      | Error _ -> None
      | Ok r -> Json.member "metrics" r)

let snapshot_counter snap name =
  match
    Option.bind snap (fun s ->
        Option.bind (Json.member "counters" s) (Json.member name))
  with
  | Some (Json.Int n) -> n
  | _ -> 0

let snapshot_invariant_ok snap =
  match snap with
  | None -> false
  | Some s -> (
      let requests = snapshot_counter snap "serve/requests" in
      match Json.member "histograms" s with
      | Some (Json.Obj hs) ->
          let latency =
            List.fold_left
              (fun acc (name, h) ->
                if String.starts_with ~prefix:"serve/latency/" name then
                  acc
                  + (match Json.member "count" h with
                    | Some (Json.Int n) -> n
                    | _ -> 0)
                else acc)
              0 hs
          in
          latency = requests
      | _ -> false)

let run_socket ?(clients = 4) ?(requests = 64) ?(op = `Run) ~host ~port () =
  let clients = max 1 clients in
  let requests = max clients requests in
  let op_name = match op with `Run -> "run" | `Check -> "check" in
  let cold, cold_cls =
    socket_phase ~clients ~requests ~op:op_name ~host ~port
      ~variant_of:Fun.id ()
  in
  let hot, hot_cls =
    socket_phase ~clients ~requests ~op:op_name ~host ~port
      ~variant_of:(fun i -> requests + (i mod clients))
      ()
  in
  let by_class c =
    let count cls =
      Array.fold_left (fun n x -> if x = c then n + 1 else n) 0 cls
    in
    count cold_cls + count hot_cls
  in
  let snap = snapshot_probe ~host ~port in
  {
    clients;
    requests;
    workers = 0;  (* the server's business, not the client's *)
    op = op_name;
    mode = "socket";
    cold;
    hot;
    speedup = (if cold.ph_rps > 0. then hot.ph_rps /. cold.ph_rps else 0.);
    invariant_ok = snapshot_invariant_ok snap;
    cache_hits = snapshot_counter snap "scale/cache/hits";
    cache_misses = snapshot_counter snap "scale/cache/misses";
    shed = by_class "shed";
    worker_crashes = by_class "worker-crash";
    restarts = snapshot_counter snap "scale/pool/restarts";
  }

(* ---- rendering ---- *)

let phase_json p =
  Json.Obj
    [
      ("requests", Json.Int p.ph_requests);
      ("elapsed_ms", Json.Int (int_of_float (p.ph_elapsed_s *. 1000.)));
      ("rps", Json.Int (int_of_float p.ph_rps));
      ("p50_us", Json.Int p.ph_p50_us);
      ("p99_us", Json.Int p.ph_p99_us);
      ("ok", Json.Int p.ph_ok);
      ("failed", Json.Int p.ph_failed);
    ]

let report_json r =
  Json.Obj
    [
      ("bench", Json.Str "serve");
      ("clients", Json.Int r.clients);
      ("requests", Json.Int r.requests);
      ("workers", Json.Int r.workers);
      ("op", Json.Str r.op);
      ("mode", Json.Str r.mode);
      ("cold", phase_json r.cold);
      ("hot", phase_json r.hot);
      ("hot_speedup_x100", Json.Int (int_of_float (r.speedup *. 100.)));
      ("invariant_ok", Json.Bool r.invariant_ok);
      ("cache_hits", Json.Int r.cache_hits);
      ("cache_misses", Json.Int r.cache_misses);
      ("shed", Json.Int r.shed);
      ("worker_crashes", Json.Int r.worker_crashes);
      ("restarts", Json.Int r.restarts);
    ]

(* The trajectory rows, in the same record shape the bechamel harness
   writes (bench/bench_util.ml), so scripts/bench_gate.py can compare a
   fresh run against the committed BENCH_SERVE.json baseline.

   Read-merge-write keyed by (backend, metric): the in-process and
   socket benches run as separate invocations but share one file, so
   each overwrites only its own backend's rows and preserves the
   other's. Socket rows use backend ["socket"] with the {e same} metric
   names, so a per-metric SLO bound (the gate applies each bound to
   every backend recording that metric) covers both transports with one
   flag. *)
let write_bench_rows ~dir r =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v
  in
  let backend =
    if r.mode = "socket" then "socket"
    else Printf.sprintf "workers=%d" r.workers
  in
  let rows =
    [
      ("cold_rps", r.cold.ph_rps);
      ("hot_rps", r.hot.ph_rps);
      ("hot_speedup", r.speedup);
      ("p50_ms/cold", float_of_int r.cold.ph_p50_us /. 1000.);
      ("p99_ms/cold", float_of_int r.cold.ph_p99_us /. 1000.);
      ("p50_ms/hot", float_of_int r.hot.ph_p50_us /. 1000.);
      ("p99_ms/hot", float_of_int r.hot.ph_p99_us /. 1000.);
      (* robustness counts (not *_ms: excluded from the gate's ratio
         normalization, available to absolute --slo bounds) *)
      ("shed", float_of_int r.shed);
      ("worker_crashes", float_of_int r.worker_crashes);
    ]
  in
  let path = Filename.concat dir "BENCH_SERVE.json" in
  (* rows from a previous invocation under a different backend *)
  let kept =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception _ -> []
    | contents -> (
        match Json.parse contents with
        | Ok (Json.List olds) ->
            List.filter_map
              (fun row ->
                match
                  ( Option.bind (Json.member "backend" row) Json.to_str,
                    Option.bind (Json.member "metric" row) Json.to_str,
                    Option.bind (Json.member "value" row) Json.to_float )
                with
                | Some b, Some m, Some v when b <> backend -> Some (b, m, v)
                | _ -> None)
              olds
        | _ -> [])
  in
  let all = kept @ List.map (fun (m, v) -> (backend, m, v)) rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (b, m, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           {|  {"experiment": "serve", "backend": %S, "metric": %S, "value": %s}|}
           b m (num v)))
    all;
  Buffer.add_string buf "\n]\n";
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  path
