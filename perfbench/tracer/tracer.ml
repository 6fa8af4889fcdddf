(* The benchmark's traced server: [mhc serve] with a stopwatch around
   every call into a layer, timed from here and not from inside the
   libraries.

   It wires the request loop as [mhc serve] does with its defaults
   (one worker, a 64 MiB compile cache behind the compile and check
   seams, a 10 s request deadline, and the profile-guided specialise
   seam when given --spec-profile) and serves the same protocol on
   stdin/stdout, or over TCP with --listen PORT.

   On stdio it records, per request:
   - handle: the whole [Serve.handle_line] call;
   - parse / render: [Json.parse] of the request line and [Json.to_line]
     of the response, timed again on the same inputs;
   - hook / spec: time inside the compile-or-check seam (the compile
     cache and, on a miss, the compile) and inside the specialise seam;
   - the cache's hit, miss and eviction counts;
   - the phase spans the pipeline already reports into the server's
     metrics registry (compile, optimize and exec phases), as deltas;
   - the checker's unification and context-reduction counts, when the
     request compiled;
   - minor words allocated and major collections.
   After the timed request numbered --gauges-at N (ids are counted from
   0) it reads the memory gauges: interned identifiers, cache bytes and
   the heap's peak. At end of input it writes the records, the gauges
   and a prelude-only baseline compile as one JSON document to
   --report FILE.

   Over TCP it serves through [Tc_net.Net] with the same timed seams
   (their cost included) and records nothing: the client measures. *)

module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Json = Tc_obs.Json
module Metrics = Tc_obs.Metrics
module Cache = Tc_scale.Cache
module Stats = Tc_types.Stats
module Mono = Tc_support.Mono

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* As [mhc serve --spec-profile]: re-specialize every run artifact
   against the loaded profile, with the spec pass list. *)
let spec_hook path =
  let sp =
    match Json.parse (read_file path) with
    | Error m -> failwith (path ^ ": " ^ m)
    | Ok j -> (
        match Tc_obs.Profile.spec_of_json j with
        | Error m -> failwith (path ^ ": " ^ m)
        | Ok sp -> sp)
  in
  let specialise = { Pipeline.default_spec with spec_profile = Some sp } in
  let passes = Option.get (Tc_opt.Opt.of_string "spec") in
  fun (c : Pipeline.compiled) ->
    Pipeline.optimize passes
      { c with options = { c.options with specialise } }

(* Nanoseconds spent inside the seams during the current request. *)
let hook_ns = ref 0
let spec_ns = ref 0

let timed acc f =
  let t0 = Mono.now_ns () in
  match f () with
  | v ->
      acc := !acc + (Mono.now_ns () - t0);
      v
  | exception e ->
      acc := !acc + (Mono.now_ns () - t0);
      raise e

let config cache spec =
  {
    Serve.default_config with
    default_budget = { Tc_resilience.Budget.unlimited with wall_ms = 10_000. };
    extra_metrics = Some (fun () -> Cache.metrics_view cache);
    hooks =
      {
        Serve.compile =
          Some
            (fun ~opts ~passes ~src ->
              timed hook_ns (fun () ->
                  Cache.compile_run cache ~opts ~passes ~src));
        check =
          Some
            (fun ~opts ~src ->
              timed hook_ns (fun () -> Cache.check cache ~opts ~src));
        specialise = Option.map (fun f c -> timed spec_ns (fun () -> f c)) spec;
      };
  }

(* Per-phase nanoseconds of a compile of [src] alone, into a fresh
   registry: the cost of checking the prelude when [src] is trivial. *)
let phase_ns src =
  let metrics = Metrics.create () in
  let opts = { Pipeline.default_options with metrics } in
  ignore (Pipeline.compile_collect ~opts ~file:"<prelude-baseline>" src);
  List.map
    (fun s -> (s.Metrics.sp_name, s.Metrics.sp_ns))
    (Metrics.spans metrics)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

let prelude_baseline () =
  let runs = List.init 11 (fun _ -> phase_ns "main = 0") in
  List.map
    (fun (name, _) ->
      (name, Json.Int (median (List.map (List.assoc name) runs))))
    (List.hd runs)

(* Registry span totals seen so far, for per-request deltas. *)
let span_deltas seen reg =
  List.filter_map
    (fun (s : Metrics.span_stat) ->
      let before =
        Option.value ~default:0 (Hashtbl.find_opt seen s.sp_name)
      in
      Hashtbl.replace seen s.sp_name s.sp_ns;
      if s.sp_ns > before then Some (s.sp_name, Json.Int (s.sp_ns - before))
      else None)
    (Metrics.spans reg)

let span_count reg name =
  List.fold_left
    (fun acc (s : Metrics.span_stat) ->
      if s.sp_name = name then s.sp_count else acc)
    0 (Metrics.spans reg)

let counter resp name =
  match Option.bind (Json.member "counters" resp) (Json.member name) with
  | Some (Json.Int n) -> Json.Int n
  | _ -> Json.Null

let field name = function
  | Ok req -> Option.value ~default:Json.Null (Json.member name req)
  | Error _ -> Json.Null

(* The memory gauges, read once the server has handled a fixed number
   of timed requests, so they do not grow with a run's speed. *)
let gauges cache =
  let idents, _ = Tc_support.Ident.snapshot () in
  [
    ("ident_interned", Json.Int (List.length idents));
    ("cache_bytes", Json.Int (Cache.bytes cache));
    ("heap_peak_words", Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
  ]

let serve_stdio ~report ~gauges_at cache spec =
  let baseline = prelude_baseline () in
  let server = Serve.create ~config:(config cache spec) () in
  let reg = Serve.metrics server in
  let cache_reg = Cache.metrics cache in
  let cache_count name =
    Metrics.counter_value (Metrics.counter cache_reg name)
  in
  let seen = Hashtbl.create 64 in
  let records = ref [] in
  let at_gauges = ref [] in
  let next = Serve.bounded_next stdin in
  let rec loop () =
    match next () with
    | None -> ()
    | Some line ->
        let parse_t0 = Mono.now_ns () in
        let req = Json.parse line in
        let parse = Mono.now_ns () - parse_t0 in
        hook_ns := 0;
        spec_ns := 0;
        let hits0 = cache_count "scale/cache/hits"
        and misses0 = cache_count "scale/cache/misses"
        and evict0 = cache_count "scale/cache/evictions"
        and compiles0 = span_count reg "compile"
        and minor0 = Gc.minor_words ()
        and major0 = (Gc.quick_stat ()).Gc.major_collections in
        let t0 = Mono.now_ns () in
        let resp_line = Serve.handle_line server line in
        let handle = Mono.now_ns () - t0 in
        print_string resp_line;
        print_newline ();
        let minor = Gc.minor_words () -. minor0
        and major = (Gc.quick_stat ()).Gc.major_collections - major0 in
        let resp = Result.value ~default:Json.Null (Json.parse resp_line) in
        let render_t0 = Mono.now_ns () in
        ignore (Json.to_line resp);
        let render = Mono.now_ns () - render_t0 in
        let checker =
          if span_count reg "compile" > compiles0 then
            let st = Stats.snapshot () in
            [ ("unif", Json.Int st.Stats.unifications);
              ("ctx", Json.Int st.Stats.context_reductions) ]
          else []
        in
        records :=
          Json.Obj
            ([
               ("id", field "id" req);
               ("op", field "op" req);
               ("handle", Json.Int handle);
               ("parse", Json.Int parse);
               ("render", Json.Int render);
               ("hook", Json.Int !hook_ns);
               ("spec", Json.Int !spec_ns);
               ("hits", Json.Int (cache_count "scale/cache/hits" - hits0));
               ("misses",
                 Json.Int (cache_count "scale/cache/misses" - misses0));
               ("evictions",
                 Json.Int (cache_count "scale/cache/evictions" - evict0));
               ("spans", Json.Obj (span_deltas seen reg));
               ("minor", Json.Float minor);
               ("major", Json.Int major);
               ("sel", counter resp "selections");
               ("dc", counter resp "dict_constructions");
             ]
            @ checker)
          :: !records;
        if field "id" req = Json.Int (gauges_at - 1) then
          at_gauges := gauges cache;
        loop ()
  in
  loop ();
  let doc =
    Json.Obj
      [
        ("prelude", Json.Obj baseline);
        ("requests", Json.List (List.rev !records));
        ("gauges", Json.Obj !at_gauges);
      ]
  in
  Out_channel.with_open_bin report (fun oc ->
      output_string oc (Json.to_line doc);
      output_char oc '\n')

let serve_tcp ~port cache spec =
  let server = Tc_net.Net.create ~host:"127.0.0.1" ~port () in
  let drain _ = Tc_net.Net.drain server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  Printf.eprintf "serve: listening on 127.0.0.1:%d (1 worker)\n%!"
    (Tc_net.Net.port server);
  ignore (Tc_net.Net.run server ~workers:1 ~config:(config cache spec) ())

let () =
  let report = ref "" and spec = ref "" and listen = ref (-1)
  and gauges_at = ref 0 in
  Arg.parse
    [
      ( "--report",
        Arg.Set_string report,
        "FILE  write per-request records here (stdio)" );
      ( "--spec-profile",
        Arg.Set_string spec,
        "FILE  specialise against this profile" );
      ("--listen", Arg.Set_int listen, "PORT  serve over TCP on 127.0.0.1");
      ( "--gauges-at",
        Arg.Set_int gauges_at,
        "N  read the memory gauges after timed request N-1 (stdio)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tracer [--spec-profile FILE] (--report FILE --gauges-at N | --listen PORT)";
  let cache = Cache.create ~max_bytes:(64 * 1024 * 1024) () in
  let spec = if !spec = "" then None else Some (spec_hook !spec) in
  if !listen >= 0 then serve_tcp ~port:!listen cache spec
  else if !report <> "" && !gauges_at > 0 then
    serve_stdio ~report:!report ~gauges_at:!gauges_at cache spec
  else (
    prerr_endline "tracer: give --report FILE --gauges-at N, or --listen PORT";
    exit 2)
