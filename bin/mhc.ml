(* mhc — the MiniHaskell compiler/interpreter.

   Subcommands:
     check    batch type check; report every diagnostic (--json), print
              the inferred qualified types of clean files
     core     print the dictionary-converted core program
     run      evaluate `main` (--backend tree|vm)
     counters evaluate `main` and report operation counters
     trace    print the structured compile-time event trace (--json)
     profile  rank overloaded dispatch sites by run-time hits (--json)
     disasm   print the VM bytecode
     stats    type check and report checker instrumentation
     serve    long-running NDJSON request loop over stdin/stdout

   Common flags select the implementation strategy (dictionaries with
   nested or flat layout, or run-time tags), the optimization pipeline,
   and the evaluation mode. Evaluating subcommands take a resource
   budget (--fuel, --timeout; 0 means unlimited) and --inject arms the
   deterministic fault injector for chaos testing.

   Every failure is classified by the serve loop's table
   ([Serve.classify]); the class picks the exit code: 0 success; 1
   compile error; 3 resource exhaustion (budget, memory or native
   stack); 2 any other failure (runtime error, internal compiler
   error). *)

open Cmdliner
module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Trace = Tc_obs.Trace
module Rtrace = Tc_obs.Rtrace
module Profile = Tc_obs.Profile
module Metrics = Tc_obs.Metrics
module Mono = Tc_support.Mono
module Json = Tc_obs.Json
module Diag = Tc_obs.Diag
module Diagnostic = Tc_support.Diagnostic
module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject

(* An unreadable file is a compile error, located nowhere. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m ->
    let m =
      if String.starts_with ~prefix:path m then m else path ^ ": " ^ m
    in
    Diagnostic.errorf "cannot read %s" m

(* ---- common options ---- *)

let strategy_conv =
  let parse s =
    match List.assoc_opt s Pipeline.strategies with
    | Some strategy -> Ok strategy
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Pipeline.strategy_name s))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Pipeline.Dicts
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:
          "Implementation strategy: $(b,dict) (dictionary passing, nested \
           layout), $(b,dict-flat) (flattened dictionaries, §8.1), or \
           $(b,tags) (run-time tag dispatch, §3).")

let opt_conv =
  let parse s =
    match Tc_opt.Opt.of_string s with
    | Some passes -> Ok passes
    | None -> Error (`Msg (Printf.sprintf "unknown optimization level %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Fmt.string ppf "<passes>")

let opt_arg =
  Arg.(
    value
    & opt opt_conv []
    & info [ "opt"; "O" ] ~docv:"LEVEL"
        ~doc:
          "Optimizations: $(b,none), $(b,simplify), $(b,inner-entry), \
           $(b,hoist), $(b,spec), or $(b,all).")

let mode_arg =
  Arg.(
    value
    & opt (enum Pipeline.modes) Pipeline.default_mode
    & info [ "eval" ] ~docv:"MODE" ~doc:"Evaluation mode: $(b,lazy) or $(b,strict).")

let backend_arg =
  Arg.(
    value
    & opt (enum Pipeline.backends) Pipeline.default_backend
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,tree) (the instrumented tree-walking \
           evaluator) or $(b,vm) (compile to bytecode and run on the stack \
           VM). Both report identical results and dictionary counters.")

let no_prelude_arg =
  Arg.(value & flag & info [ "no-prelude" ] ~doc:"Do not load the prelude.")

let mono_literals_arg =
  Arg.(
    value & flag
    & info [ "monomorphic-literals" ]
        ~doc:"Integer literals are plain Int instead of (Num a) => a.")

(* The compile options every compiling subcommand takes from its flags. *)
let opts_term =
  let opts strategy no_prelude mono_lits =
    {
      Pipeline.default_options with
      strategy;
      overloaded_literals = not mono_lits;
      include_prelude = not no_prelude;
    }
  in
  Term.(const opts $ strategy_arg $ no_prelude_arg $ mono_literals_arg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mhs")

let fuel_arg =
  Arg.(
    value & opt int 0
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Step budget: evaluation steps on the tree backend, instructions \
           on the VM ($(b,0) = unlimited). Exhaustion exits with code 3.")

let timeout_arg =
  Arg.(
    value & opt int 10_000
    & info [ "timeout" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline in milliseconds ($(b,0) = unlimited; the \
           default stops divergent programs after 10s). Exhaustion exits \
           with code 3.")

let budget_of ~fuel ~timeout : Budget.t =
  { Budget.unlimited with steps = fuel; wall_ms = float_of_int timeout }

let inject_conv =
  let parse s =
    match Inject.parse_spec s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf _ -> Fmt.string ppf "<plan>")

let inject_arg =
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"POINT[:RATE[:SEED]]"
        ~doc:
          "Arm the deterministic fault injector at $(b,POINT) (e.g. \
           $(b,infer), $(b,vm-step:0.001), $(b,oom:1:42)) for chaos \
           testing. Injected faults must be contained like real ones: the \
           process reports a diagnostic and exits 1/2/3, never crashes.")

let arm_inject = function None -> () | Some plan -> Inject.arm plan

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

(* --metrics FILE: attach a live registry for the command's duration and
   write its snapshot (phase spans, counters, histograms) at the end. *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON metrics snapshot — per-phase timing/allocation \
           spans, counters, latency histograms — to $(docv) ($(b,-) for \
           stdout) when the command finishes.")

(* A live registry for --metrics, or to carry a live flight recorder
   (--trace-out): recorder events come from spans, which need one. *)
let metrics_for ?(recorder = Rtrace.disabled) = function
  | None when not (Rtrace.is_on recorder) -> Metrics.disabled
  | _ -> Metrics.create ~recorder ()

(* --metrics, --trace-out, --spec-report and --emit-spec: one line to
   stdout ("-") or to a file, built only when there is somewhere to
   write it. *)
let write_line dest line =
  match dest with
  | None -> ()
  | Some "-" -> Fmt.pr "%s@." (line ())
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (line () ^ "\n"))

let write_metrics dest m =
  write_line dest (fun () -> Json.to_string (Metrics.snapshot m))

(* --trace-out FILE: attach a live flight recorder for the command's
   duration and write its Chrome trace-event dump at the end. *)
let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-request flight recorder's window as Chrome \
           trace-event JSON — loadable in Perfetto or chrome://tracing, \
           digestible with $(b,mhc stats --trace-in) — to $(docv) \
           ($(b,-) for stdout) when the command finishes (and, for \
           $(b,serve), whenever the process receives SIGUSR1).")

let rtrace_for = function
  | None -> Rtrace.disabled
  | Some _ -> Rtrace.create ()

let write_rtrace dest rt = write_line dest (fun () -> Rtrace.dump_string rt)

(* Batch commands have no serve ingress: mint the trace ID here and
   record a [request/<op>] root spanning the work, so a batch dump
   feeds [mhc stats --top-slow] exactly like a serve dump does. *)
let traced_root rt ~op f =
  if not (Rtrace.is_on rt) then f ()
  else begin
    let id = Rtrace.mint rt in
    Rtrace.set_current rt id;
    let t0 = Mono.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Rtrace.clear_current rt;
        Rtrace.record_as rt ~trace:id ~name:("request/" ^ op) ~ts_ns:t0
          ~dur_ns:(Mono.now_ns () - t0) ~words:0)
      f
  end

(* ---- spec profiles (the profile -> optimize loop) ---- *)

(* [mhc profile --emit-spec] writes one of these; [run]/[serve]
   [--spec-profile] loads it back to drive profile-guided
   specialization. A broken profile is a user error (exit 1), not an
   ICE. *)
let read_spec_profile path : Profile.spec =
  let fail m = Diagnostic.errorf "%s: %s" path m in
  match Json.parse (read_file path) with
  | Error m -> fail ("not valid JSON: " ^ m)
  | Ok j -> (
      match Profile.spec_of_json j with Ok sp -> sp | Error m -> fail m)

let spec_profile_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec-profile" ] ~docv:"FILE"
        ~doc:
          "Load a dispatch profile (written by $(b,mhc profile \
           --emit-spec)) and drive profile-guided specialization with it: \
           only overloaded bindings the profile shows as hot are cloned \
           at their concrete instance types; the cold tail keeps \
           dictionary dispatch. Implies $(b,-O spec) unless $(b,-O) is \
           given explicitly.")

let spec_options_of_profile = function
  | None -> Pipeline.default_spec
  | Some path ->
      {
        Pipeline.default_spec with
        Pipeline.spec_profile = Some (read_spec_profile path);
      }

(* When a profile is loaded but no -O was given, default to the
   specializing pipeline — the flag is useless without the pass. *)
let spec_default_passes ~spec_profile passes =
  match (spec_profile, passes) with
  | Some _, [] -> Option.value ~default:[] (Tc_opt.Opt.of_string "spec")
  | _ -> passes

let spec_report_json ~file (c : Pipeline.compiled) : Json.t =
  let body =
    match c.Pipeline.spec_report with
    | None -> Json.Null
    | Some r ->
        Json.Obj
          [
            ("clones", Json.Int r.Tc_opt.Specialise.sr_clones);
            ("call_sites", Json.Int r.Tc_opt.Specialise.sr_call_sites);
            ("hot_binds", Json.Int r.Tc_opt.Specialise.sr_hot_binds);
            ("cold_binds", Json.Int r.Tc_opt.Specialise.sr_cold_binds);
            ("budget_skips", Json.Int r.Tc_opt.Specialise.sr_budget_skips);
            ("size_before", Json.Int r.Tc_opt.Specialise.sr_size_before);
            ("size_after", Json.Int r.Tc_opt.Specialise.sr_size_after);
            ("growth", Json.Float (Tc_opt.Specialise.growth r));
            ("sels_before", Json.Int r.Tc_opt.Specialise.sr_sels_before);
            ("sels_after", Json.Int r.Tc_opt.Specialise.sr_sels_after);
            ("dicts_before", Json.Int r.Tc_opt.Specialise.sr_dicts_before);
            ("dicts_after", Json.Int r.Tc_opt.Specialise.sr_dicts_after);
            ( "profile_guided",
              Json.Bool r.Tc_opt.Specialise.sr_profile_guided );
          ]
  in
  Json.Obj [ ("file", Json.Str file); ("specialise", body) ]

(* Every failure goes through the serve loop's table, so the CLI says
   what a serve response would; the class picks the exit code. An ICE
   is contained too: never a bare backtrace. *)
let handle_errors f =
  try f ()
  with exn ->
    let cls, message = Serve.classify ~stage:"mhc" exn in
    Fmt.epr "%s@." message;
    exit (match cls with "compile" -> 1 | "resource" -> 3 | _ -> 2)

let print_warnings (c : Pipeline.compiled) =
  List.iter (fun w -> Fmt.epr "%a@." Diagnostic.pp w) c.warnings

(* Optimize a compile and report its warnings. *)
let optimize passes c =
  let c = Pipeline.optimize passes c in
  print_warnings c;
  c

(* Compile [file], optimize it and report its warnings. *)
let compile opts passes file =
  optimize passes (Pipeline.compile ~opts ~file (read_file file))

(* ---- subcommands ---- *)

let check_cmd =
  let doc =
    "Type check one or more programs, reporting every diagnostic. Parse \
     errors resynchronize at the next top-level declaration, type errors \
     are isolated per binding group, and unexpected compiler exceptions \
     become contained 'internal error' diagnostics, so one run reports all \
     independent problems across all files. Clean files get their inferred \
     qualified types printed. Exit code: 0 when no errors (warnings are \
     fine), 1 when any error was reported, 2 on an internal compiler error."
  in
  let files_arg =
    (* plain strings, not [Arg.file]: a missing file must become a
       diagnostic for that file, not a command-line error *)
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE.mhs")
  in
  let max_errors_arg =
    Arg.(
      value & opt int 100
      & info [ "max-errors" ] ~docv:"N"
          ~doc:
            "Record at most $(docv) errors per file before giving up on it \
             ($(b,0) or negative means unlimited).")
  in
  let run opts json max_errors inject mfile tfile files =
    handle_errors @@ fun () ->
    arm_inject inject;
    let rtrace = rtrace_for tfile in
    let metrics = metrics_for ~recorder:rtrace mfile in
    let opts = { opts with Pipeline.metrics; max_errors } in
    let results =
      List.map
        (fun file ->
          match read_file file with
          | exception Diagnostic.Error d -> (file, [ d ], None)
          | src ->
              let { Pipeline.diagnostics; artifact } =
                traced_root rtrace ~op:"check" (fun () ->
                    Pipeline.compile_collect ~opts ~file src)
              in
              (file, Diagnostic.sort diagnostics, artifact))
        files
    in
    let many = List.length files > 1 in
    if json then
      Fmt.pr "%s@."
        (Json.to_string
           (Diag.report (List.map (fun (f, ds, _) -> (f, ds)) results)))
    else
      List.iter
        (fun (file, ds, artifact) ->
          List.iter (fun d -> Fmt.epr "%a@." Diagnostic.pp d) ds;
          match artifact with
          | Some c ->
              if many then Fmt.pr "-- %s@." file;
              List.iter
                (fun (n, s) ->
                  Fmt.pr "%s :: %s@." (Tc_support.Ident.text n)
                    (Tc_types.Scheme.to_string s))
                c.Pipeline.user_schemes
          | None -> ())
        results;
    write_metrics mfile metrics;
    write_rtrace tfile rtrace;
    let all = List.concat_map (fun (_, ds, _) -> ds) results in
    if
      List.exists
        (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Bug)
        all
    then exit 2
    else if List.exists Diagnostic.is_error all then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ opts_term $ json_arg $ max_errors_arg $ inject_arg
      $ metrics_arg $ trace_out_arg $ files_arg)

let core_cmd =
  let doc = "Print the dictionary-converted (or tag-dispatching) core program." in
  let user_only_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Print the whole program including the prelude's translation.")
  in
  let run opts passes full file =
    handle_errors @@ fun () ->
    let c = compile opts passes file in
    let user_names =
      List.map (fun (n, _) -> n) c.user_schemes |> Tc_support.Ident.Set.of_list
    in
    List.iter
      (fun g ->
        let binds = Tc_core_ir.Core.binds_of_group g in
        let interesting =
          full
          || List.exists
               (fun (b : Tc_core_ir.Core.bind) ->
                 Tc_support.Ident.Set.mem b.b_name user_names)
               binds
        in
        if interesting then Fmt.pr "%a@.@." Tc_core_ir.Core_pp.pp_group g)
      c.core.p_binds
  in
  Cmd.v (Cmd.info "core" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ user_only_arg $ file_arg)

let run_cmd =
  let doc =
    "Compile and evaluate $(b,main) under a resource budget (a 10s \
     wall-clock deadline by default, so divergent programs terminate with \
     exit code 3 instead of hanging)."
  in
  let spec_report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec-report" ] ~docv:"FILE"
          ~doc:
            "Write the specializer's report — clones minted, call sites \
             rewritten, hot/cold binding split, budget refusals, code \
             growth — as JSON to $(docv) ($(b,-) for stdout) after \
             optimization.")
  in
  let run opts passes mode backend fuel timeout inject mfile tfile
      spec_profile spec_report file =
    handle_errors @@ fun () ->
    arm_inject inject;
    let rtrace = rtrace_for tfile in
    let metrics = metrics_for ~recorder:rtrace mfile in
    let specialise = spec_options_of_profile spec_profile in
    let passes = spec_default_passes ~spec_profile passes in
    let c, r =
      traced_root rtrace ~op:"run" (fun () ->
          let c = compile { opts with Pipeline.metrics; specialise } passes file in
          ( c,
            Pipeline.exec ~backend ~mode ~budget:(budget_of ~fuel ~timeout) c
          ))
    in
    write_metrics mfile metrics;
    write_rtrace tfile rtrace;
    write_line spec_report (fun () ->
        Json.to_string (spec_report_json ~file c));
    Fmt.pr "%s@." r.Pipeline.rendered
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ mode_arg $ backend_arg $ fuel_arg
      $ timeout_arg $ inject_arg
      $ metrics_arg $ trace_out_arg $ spec_profile_arg $ spec_report_arg
      $ file_arg)

let counters_cmd =
  let doc = "Evaluate $(b,main) and report run-time operation counters." in
  let run opts passes mode backend fuel timeout file =
    handle_errors @@ fun () ->
    let c = compile opts passes file in
    let r = Pipeline.exec ~backend ~mode ~budget:(budget_of ~fuel ~timeout) c in
    Fmt.pr "result: %s@." r.Pipeline.rendered;
    Fmt.pr "%a@." Tc_eval.Counters.pp r.Pipeline.counters
  in
  Cmd.v (Cmd.info "counters" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ mode_arg $ backend_arg $ fuel_arg
      $ timeout_arg $ file_arg)

let trace_cmd =
  let doc =
    "Compile (and optionally optimize) with the structured event trace \
     attached, then print every event: context reductions, instance \
     lookups, placeholder creation/resolution, defaulting decisions, and \
     per-pass optimizer deltas."
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Include events arising from the prelude's own declarations, by \
             checking the prelude as the first file along with $(i,FILE).")
  in
  let run opts passes json full file =
    handle_errors @@ fun () ->
    let trace, events = Trace.collector () in
    let opts = { opts with Pipeline.trace } in
    (if full && opts.Pipeline.include_prelude then begin
       (* the reference path: the shared prelude snapshot is built
          untraced, so check the prelude afresh, as the first file *)
       let ck =
         Pipeline.compile_collect_files ~opts ~base:(Pipeline.empty_base ())
           [ ("<prelude>", Tc_prelude.Prelude.source); (file, read_file file) ]
       in
       match ck.Pipeline.artifact with
       | Some c -> ignore (optimize passes c)
       | None ->
           raise
             (Diagnostic.Error
                (List.find Diagnostic.is_error ck.Pipeline.diagnostics))
     end
     else ignore (compile opts passes file));
    let keep (e : Trace.event) =
      full
      ||
      match Trace.loc_of_event e with
      | None -> true  (* whole-program events (optimizer passes) *)
      | Some l -> Tc_support.Loc.is_none l || l.Tc_support.Loc.file = file
    in
    let evs = List.filter keep (events ()) in
    if json then
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj
              [ ("file", Json.Str file); ("events", Trace.events_json evs) ]))
    else List.iter (fun e -> Fmt.pr "%a@." Trace.pp_event e) evs
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ json_arg $ full_arg $ file_arg)

let profile_cmd =
  let doc =
    "Compile, execute $(b,main), and rank overloaded dispatch sites (method \
     selections and dictionary constructions) by run-time hits. Per-site \
     totals sum exactly to the aggregate counters, on either backend."
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Show the $(docv) hottest sites of each kind (-1 = all).")
  in
  let emit_spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-spec" ] ~docv:"FILE"
          ~doc:
            "Also write the profile as a specialization input — every hit \
             dispatch site with its descriptor and count — to $(docv) \
             ($(b,-) for stdout). Feed it back with $(b,mhc run \
             --spec-profile) to clone exactly the hot sites.")
  in
  let run opts passes mode backend fuel timeout top json emit_spec
      spec_profile file =
    handle_errors @@ fun () ->
    let specialise = spec_options_of_profile spec_profile in
    let passes = spec_default_passes ~spec_profile passes in
    let c = compile { opts with Pipeline.specialise } passes file in
    let r =
      Pipeline.exec ~backend ~mode ~budget:(budget_of ~fuel ~timeout)
        ~profile:true c
    in
    let report = Option.get r.Pipeline.profile in
    write_line emit_spec (fun () ->
        Json.to_string (Profile.spec_json (Profile.spec_of_report report)));
    if json then
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj
              [
                ("file", Json.Str file);
                ( "backend",
                  Json.Str
                    (fst
                       (List.find (fun (_, b) -> b = backend) Pipeline.backends))
                );
                ("result", Json.Str r.Pipeline.rendered);
                ("counters", Tc_eval.Counters.to_json r.Pipeline.counters);
                ("profile", Profile.report_json ~top report);
              ]))
    else begin
      Fmt.pr "result: %s@." r.Pipeline.rendered;
      Fmt.pr "%a@." Tc_eval.Counters.pp r.Pipeline.counters;
      Fmt.pr "%a@?" (Profile.pp_report ~top) report
    end
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ mode_arg $ backend_arg $ fuel_arg
      $ timeout_arg $ top_arg $ json_arg $ emit_spec_arg $ spec_profile_arg
      $ file_arg)

let disasm_cmd =
  let doc = "Compile to VM bytecode and print the disassembly." in
  let run opts passes mode file =
    handle_errors @@ fun () ->
    let c = compile opts passes file in
    let prog = Pipeline.bytecode ~mode c in
    Fmt.pr "%a@?" Tc_vm.Bytecode.pp_program prog
  in
  Cmd.v (Cmd.info "disasm" ~doc)
    Term.(
      const run $ opts_term $ opt_arg $ mode_arg $ file_arg)

let stats_cmd =
  let doc =
    "Type check and report checker instrumentation (unifications, context \
     reductions, placeholders) of the program; the prelude is checked once \
     per process and not counted. With $(b,--json), also report the phase \
     spans of the compile — per-stage wall-clock and allocation — from \
     the metrics registry. With $(b,--trace-in), digest a flight-recorder \
     dump instead: rank the slowest requests by latency with their \
     dominant phase ($(b,--top-slow))."
  in
  let stable_arg =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "With $(b,--json): redact machine-dependent quantities \
             (durations, allocated words, histogram detail) down to \
             counts, so the output is deterministic across runs and \
             machines.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): also summarize the persistent compile \
             cache rooted at $(docv) — valid entries, their payload \
             bytes, and files failing validation (torn or corrupt).")
  in
  let trace_in_arg =
    Arg.(
      value & opt (some file) None
      & info [ "trace-in" ] ~docv:"FILE"
          ~doc:
            "Digest a flight-recorder dump (written by $(b,--trace-out), \
             the serve $(b,trace) op, or SIGUSR1) instead of checking a \
             source file: report the slowest requests in the window — \
             see $(b,--top-slow).")
  in
  let top_slow_arg =
    Arg.(
      value & opt int 10
      & info [ "top-slow" ] ~docv:"N"
          ~doc:
            "With $(b,--trace-in): rank the $(docv) slowest complete \
             requests — trace ID, op, latency, dominant phase \
             ($(b,--json) for machine-readable digests).")
  in
  let digest_trace ~json ~top_slow path =
    let fail m = Diagnostic.errorf "%s: %s" path m in
    let doc =
      match Json.parse (read_file path) with
      | Error m -> fail ("not valid JSON: " ^ m)
      | Ok j -> j
    in
    match Rtrace.top_slow ~n:top_slow doc with
    | Error m -> fail m
    | Ok digests ->
        if json then
          Fmt.pr "%s@."
            (Json.to_string
               (Json.Obj
                  [
                    ("file", Json.Str path);
                    ("top_slow", Rtrace.digest_json digests);
                  ]))
        else if digests = [] then
          Fmt.pr "no complete requests in %s@." path
        else begin
          Fmt.pr "slowest requests in %s:@." path;
          List.iter
            (fun (d : Rtrace.digest) ->
              let ms ns = float_of_int ns /. 1e6 in
              Fmt.pr "  trace %-6d %-8s %9.3f ms  %s@." d.Rtrace.dg_trace
                d.Rtrace.dg_op
                (ms d.Rtrace.dg_latency_ns)
                (if d.Rtrace.dg_phase = "" then "-"
                 else
                   Printf.sprintf "%s (%.3f ms)" d.Rtrace.dg_phase
                     (ms d.Rtrace.dg_phase_ns)))
            digests
        end
  in
  let run opts json stable cache_dir trace_in top_slow file =
    handle_errors @@ fun () ->
    match (trace_in, file) with
    | Some path, _ -> digest_trace ~json ~top_slow path
    | None, None ->
        Fmt.epr
          "mhc stats: a FILE.mhs argument is required unless --trace-in is \
           given@.";
        exit 1
    | None, Some file ->
    let metrics = if json then Metrics.create () else Metrics.disabled in
    let opts = { opts with Pipeline.metrics } in
    let c = Pipeline.compile ~opts ~file (read_file file) in
    print_warnings c;
    if json then begin
      let fields =
        [
          ("file", Json.Str file);
          ( "checker",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Int v))
                 (Tc_types.Stats.pairs c.checker_stats)) );
          ("metrics", Metrics.snapshot ~stable metrics);
        ]
      in
      let fields =
        match cache_dir with
        | None -> fields
        | Some dir ->
            let entries, bytes, corrupt = Tc_scale.Persist.scan ~dir in
            fields
            @ [
                ( "cache_dir",
                  Json.Obj
                    (("entries", Json.Int entries)
                     :: (if stable then []
                         (* marshaled payload sizes are
                            compiler-version-dependent *)
                         else [ ("bytes", Json.Int bytes) ])
                    @ [ ("corrupt", Json.Int corrupt) ]) );
              ]
      in
      Fmt.pr "%s@." (Json.to_string (Json.Obj fields))
    end
    else Fmt.pr "%a@." Tc_types.Stats.pp c.checker_stats
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ opts_term $ json_arg $ stable_arg $ cache_dir_arg $ trace_in_arg $ top_slow_arg
      $ Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.mhs"))

(* ---- the REPL ---- *)

let repl_help =
  {|Commands:
  <expr>            evaluate an expression
  <decl>            add a declaration (data/class/instance/type/infix/binding)
  :t <expr>         show the qualified type of an expression
  :core <name>      show a binding's dictionary translation
  :load <file>      add all declarations from a file
  :browse           list the types of the declarations entered so far
  :{ ... :}         multi-line block (e.g. a class with methods)
  :reset            forget all declarations
  :quit             exit|}

let is_decl_line line =
  let starts_with p =
    String.length line >= String.length p && String.sub line 0 (String.length p) = p
  in
  List.exists starts_with
    [ "data "; "class "; "instance "; "type "; "infixl "; "infixr "; "infix " ]
  ||
  (* a top-level binding or signature: ident/operator ... = / :: *)
  (let lexed =
     try Some (Tc_syntax.Lexer.tokenize ~file:"<repl>" line)
     with Tc_support.Diagnostic.Error _ -> None
   in
   match lexed with
   | None -> false
   | Some toks ->
       let toks = List.map (fun (t : Tc_syntax.Token.spanned) -> t.tok) toks in
       let rec scan depth = function
         | [] -> false
         | Tc_syntax.Token.LPAREN :: rest
         | Tc_syntax.Token.LBRACKET :: rest -> scan (depth + 1) rest
         | Tc_syntax.Token.RPAREN :: rest
         | Tc_syntax.Token.RBRACKET :: rest -> scan (depth - 1) rest
         (* '=' or '::' at depth 0 makes it a declaration; stop at any
            expression-only keyword *)
         | Tc_syntax.Token.EQUALS :: _ when depth = 0 -> true
         | Tc_syntax.Token.DCOLON :: _ when depth = 0 -> false
         | (Tc_syntax.Token.KW_let | Tc_syntax.Token.KW_if
           | Tc_syntax.Token.KW_case | Tc_syntax.Token.LAMBDA) :: _ -> false
         | _ :: rest -> scan depth rest
       in
       scan 0 toks)

let repl_cmd =
  let doc = "An interactive read-eval-print loop." in
  let run () =
    let decls = ref [] in
    let source () = String.concat "\n" (List.rev !decls) in
    let compile_current extra =
      Pipeline.compile ~file:"<repl>" (source () ^ "\n" ^ extra)
    in
    Fmt.pr "mhc — MiniHaskell with type classes (Peterson & Jones, PLDI 1993)@.";
    Fmt.pr "type :? for help@.";
    let rec read_block acc =
      match In_channel.input_line stdin with
      | None -> String.concat "\n" (List.rev acc)
      | Some line when String.trim line = ":}" -> String.concat "\n" (List.rev acc)
      | Some line -> read_block (line :: acc)
    in
    let handle input =
      let input = String.trim input in
      (* every failure, of any class, is reported and the session goes on *)
      let with_errors f =
        try f ()
        with exn -> Fmt.pr "%s@." (snd (Serve.classify ~stage:"repl" exn))
      in
      match input with
      | "" -> ()
      | ":q" | ":quit" -> raise Exit
      | ":?" | ":h" | ":help" -> Fmt.pr "%s@." repl_help
      | ":reset" ->
          decls := [];
          Fmt.pr "declarations cleared@."
      | ":browse" ->
          with_errors (fun () ->
              let c = compile_current "" in
              List.iter
                (fun (n, s) ->
                  Fmt.pr "%s :: %s@." (Tc_support.Ident.text n)
                    (Tc_types.Scheme.to_string s))
                c.user_schemes)
      | _ when String.length input >= 3 && String.sub input 0 3 = ":t " ->
          with_errors (fun () ->
              let expr = String.sub input 3 (String.length input - 3) in
              let c = compile_current "" in
              Fmt.pr "%s :: %s@." (String.trim expr)
                (Pipeline.expression_type c expr))
      | _ when String.length input >= 6 && String.sub input 0 6 = ":core " ->
          with_errors (fun () ->
              let name = String.trim (String.sub input 6 (String.length input - 6)) in
              let c = compile_current "" in
              let id = Pipeline.ident c name in
              let found = ref false in
              List.iter
                (fun g ->
                  List.iter
                    (fun (b : Tc_core_ir.Core.bind) ->
                      if Tc_support.Ident.equal b.b_name id then begin
                        found := true;
                        Fmt.pr "%a@." Tc_core_ir.Core_pp.pp_group g
                      end)
                    (Tc_core_ir.Core.binds_of_group g))
                c.core.p_binds;
              if not !found then Fmt.pr "no binding '%s'@." name)
      | _ when String.length input >= 6 && String.sub input 0 6 = ":load " ->
          with_errors (fun () ->
              let path = String.trim (String.sub input 6 (String.length input - 6)) in
              let text = read_file path in
              let attempt = text :: !decls in
              let saved = !decls in
              decls := attempt;
              (try ignore (compile_current "") with e -> decls := saved; raise e);
              Fmt.pr "loaded %s@." path)
      | _ when is_decl_line input ->
          with_errors (fun () ->
              let saved = !decls in
              decls := input :: !decls;
              try ignore (compile_current "") with e -> decls := saved; raise e)
      | expr ->
          with_errors (fun () ->
              let c = compile_current (Printf.sprintf "replIt' = (%s)" expr) in
              (* bounded in steps and time: a divergent expression must
                 come back to the prompt, not hang the session *)
              let r =
                Pipeline.exec
                  ~entry:(Pipeline.ident c "replIt'")
                  ~budget:
                    { (Budget.fuel 200_000_000) with Budget.wall_ms = 10_000. }
                  c
              in
              Fmt.pr "%s@." r.Pipeline.rendered)
    in
    let rec loop () =
      Fmt.pr "mhs> %!";
      match In_channel.input_line stdin with
      | None -> ()
      | Some line ->
          let input =
            if String.trim line = ":{" then read_block [] else line
          in
          handle input;
          loop ()
    in
    (try loop () with Exit -> ());
    Fmt.pr "bye@."
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const run $ const ())

(* ---- serve ---- *)

(* Scaling flags shared by [serve] and [bench serve]. *)
let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Handle requests on $(docv) parallel worker domains (responses \
           stay in request order); with $(b,1) the thread that reads a \
           request handles it.")

let cache_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "Byte budget of the content-addressed compile cache's memory \
           tier (repeated sources skip the front end); $(b,0) keeps \
           nothing in memory, so nothing is cached unless $(b,serve \
           --cache-dir) adds a disk tier, which then serves every \
           repeat.")

let cache_verify_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-verify" ] ~docv:"N"
        ~doc:
          "Recompile every $(docv)-th cache hit per entry and verify the \
           cached artifact against it ($(b,0) disables).")

let max_line_arg =
  Arg.(
    value & opt int (1 lsl 20)
    & info [ "max-line" ] ~docv:"BYTES"
        ~doc:
          "Answer $(b,bad-request) for request lines longer than $(docv) \
           bytes, buffering at most that much ($(b,0) removes the cap).")

let deadline_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline: a request that has already \
           waited longer than $(docv) in the pool queue when a worker \
           dequeues it is answered $(b,shed) without compiling \
           ($(b,0) disables; a request's own $(b,deadline_ms) field \
           overrides the default).")

(* --listen HOST:PORT. An empty host (":8080") defaults to 127.0.0.1;
   the port is mandatory ("0" asks the kernel for an ephemeral one).
   The listener socket is PF_INET, so IPv6 literals — bracketed or not
   — are rejected here with a clear message instead of failing later
   as an unresolvable host. *)
let parse_listen s =
  match String.rindex_opt s ':' with
  | None -> Error "expected HOST:PORT"
  | Some i -> (
      let host = String.sub s 0 i in
      if String.contains host ':' || String.contains host '[' then
        Error "IPv6 hosts are not supported (the listener is IPv4-only)"
      else
        let host = if host = "" then "127.0.0.1" else host in
        match
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
        | _ -> Error "invalid port")

let serve_cmd =
  let doc =
    "Serve newline-delimited JSON requests ($(b,check), $(b,compile), \
     $(b,run), $(b,stats), $(b,metrics), $(b,trace), $(b,ping), \
     $(b,health), $(b,ready)) over \
     stdin/stdout — or over TCP with $(b,--listen HOST:PORT) — one \
     response line per request line, in order (per connection). Each \
     request is isolated — fresh compile, its own resource budget, full \
     error containment — so no request (bad JSON, type errors, \
     divergence, injected faults, even simulated OOM) can kill the \
     process. Transient faults retry with exponential backoff; with \
     $(b,--workers) > 1 even a crashed worker domain is survived — its \
     request answered $(b,worker-crash), the domain respawned under \
     $(b,--max-restarts). EOF, SIGINT or SIGTERM drains gracefully \
     (networked: stop accepting, finish the requests already read, \
     bounded by $(b,--drain-timeout)) and prints a summary to stderr."
  in
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries per request for transient faults.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 10.
      & info [ "backoff" ] ~docv:"MS"
          ~doc:"Initial retry backoff in milliseconds (doubles per retry).")
  in
  let metrics_every_arg =
    Arg.(
      value & opt int 0
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:
            "Emit a spontaneous $(b,metrics-snapshot) line every $(docv) \
             requests ($(b,0) disables). Each line reads the same view as \
             the $(b,metrics) op and the $(b,--metrics) summary: every \
             worker, the pool, the compile cache and the listener. \
             Snapshot lines are out-of-band: each follows the response \
             it counts, and with $(b,--listen) each one is broadcast to every connected client — responses \
             stay strictly one-per-request.")
  in
  let trace_sample_arg =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Record one request in $(docv) into the flight recorder \
             (trace IDs are still minted for every request, so every \
             response carries its $(b,trace) field). $(b,0) (default) \
             records every request when $(b,--trace-out) is given and \
             disables the recorder otherwise. Dump with \
             $(b,--trace-out), the $(b,trace) op, or SIGUSR1.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Add a crash-safe persistent tier to the compile cache \
             rooted at $(docv) (created if needed): fresh compiles are \
             written through with atomic renames, a version header and \
             per-entry checksums, so a restarted server starts warm; \
             torn or corrupt entries are dropped and healed on read. \
             With $(b,--cache-mb 0) the disk tier alone serves \
             repeats.")
  in
  let max_restarts_arg =
    Arg.(
      value & opt int 8
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Budget of worker domains respawned after a crash, per \
             server lifetime; past it the pool shrinks (the last worker \
             degrades to answering every request $(b,worker-crash)).")
  in
  let shed_grace_arg =
    Arg.(
      value & opt float (-1.)
      & info [ "shed-grace" ] ~docv:"MS"
          ~doc:
            "Admission control: once the request queue has been full \
             for $(docv) milliseconds, answer new requests $(b,shed) at \
             admission instead of queueing them (negative disables).")
  in
  let listen_arg =
    Arg.(
      value & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve over TCP instead of stdin/stdout: accept concurrent \
             connections on $(docv) (port $(b,0) picks an ephemeral \
             one), each speaking the same NDJSON protocol, multiplexed \
             onto one shared worker pool. Exits 2 if the address is \
             already bound.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 256
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Admission limit for $(b,--listen): past $(docv) concurrent \
             connections, new arrivals are answered with one \
             $(b,overloaded) line and closed.")
  in
  let conn_read_timeout_arg =
    Arg.(
      value & opt int 10_000
      & info [ "conn-read-timeout" ] ~docv:"MS"
          ~doc:
            "Reap a connection stuck mid-request-line longer than \
             $(docv) (slowloris defense; $(b,0) disables).")
  in
  let conn_idle_timeout_arg =
    Arg.(
      value & opt int 60_000
      & info [ "conn-idle-timeout" ] ~docv:"MS"
          ~doc:
            "Reap a connection quiet between requests longer than \
             $(docv) ($(b,0) disables).")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt int 5_000
      & info [ "drain-timeout" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT, bound the graceful drain: if the \
             in-flight tail outlives $(docv), emit the final snapshot, \
             shed the rest and still exit 0.")
  in
  let run opts timeout retries backoff_ms inject mfile
      tfile trace_sample every workers cache_mb cache_verify max_line
      spec_profile deadline_ms cache_dir max_restarts shed_grace listen
      max_conns conn_read_timeout conn_idle_timeout drain_timeout =
    handle_errors @@ fun () ->
    (* the worker-crash point lives in the multi-worker loop only *)
    (match inject with
     | Some { Inject.points; _ }
       when workers <= 1 && List.mem Inject.Worker_crash points ->
         Fmt.epr "mhc serve: --inject worker-crash needs --workers 2 or more@.";
         exit 2
     | _ -> ());
    arm_inject inject;
    let rtrace =
      if tfile <> None || trace_sample > 0 then
        Rtrace.create ~sample:(max 1 trace_sample) ()
      else Rtrace.disabled
    in
    (* [--cache-mb 0] without [--cache-dir] still goes through the cache:
       a zero budget sizes nothing and inserts nothing *)
    let cache =
      Tc_scale.Cache.create
        ~max_bytes:(max 0 cache_mb * 1024 * 1024)
        ~verify_every:cache_verify ?dir:cache_dir ()
    in
    (* The server's spec profile is part of [base_opts], so the cache key
       ([Pipeline.spec_signature]) covers it and the cache stores the
       specialized artifact: the specializer runs once per compile, not
       on every hit. Passes default as in [mhc run --spec-profile]. *)
    let compile ~opts ~passes ~src =
      let passes = spec_default_passes ~spec_profile passes in
      Tc_scale.Cache.compile_run cache ~opts ~passes ~src
    in
    let config =
      {
        Serve.default_config with
        Serve.base_opts =
          {
            opts with
            Pipeline.specialise = spec_options_of_profile spec_profile;
          };
        default_budget = budget_of ~fuel:0 ~timeout;
        retries;
        backoff_ms;
        snapshot_every = every;
        max_line_bytes = max_line;
        default_deadline_ms = deadline_ms;
        rtrace;
        hooks =
          {
            Serve.no_hooks with
            compile = Some compile;
            check = Some (Tc_scale.Cache.check cache);
          };
      }
    in
    (* The process's one view of its registries, which every reading
       folds: the pool's, with the compile cache's registry joined in
       (and, under --listen, the listener's). *)
    let view, config = Tc_scale.Pool.view config in
    Metrics.join view (Tc_scale.Cache.metrics cache);
    (* Shared postlude: write the metrics file, print the stderr recap. *)
    let finish (summary : Tc_scale.Pool.summary) =
      Tc_scale.Cache.close cache;
      let merged = summary.Tc_scale.Pool.metrics in
      write_metrics mfile merged;
      write_rtrace tfile rtrace;
      let requests = Serve.requests merged and failed = Serve.failed merged in
      Fmt.epr
        "serve: %d requests, %d ok, %d failed, %d retried (%d worker%s, %d \
         restart%s)@."
        requests (requests - failed) failed (Serve.retries merged)
        summary.Tc_scale.Pool.workers
        (if summary.Tc_scale.Pool.workers = 1 then "" else "s")
        summary.Tc_scale.Pool.restarts
        (if summary.Tc_scale.Pool.restarts = 1 then "" else "s")
    in
    let set_signals handler =
      try
        Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ()
    in
    (* SIGUSR1 dumps the flight recorder without disturbing the loop:
       to --trace-out if given, else one line to stderr. [Rtrace.dump]
       takes no lock, so firing mid-request cannot deadlock. *)
    if Rtrace.is_on rtrace then begin
      let dump _ =
        match tfile with
        | Some dest when dest <> "-" ->
            (try write_rtrace (Some dest) rtrace with Sys_error _ -> ())
        | _ -> Fmt.epr "%s@." (Rtrace.dump_string rtrace)
      in
      try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle dump)
      with Invalid_argument _ | Sys_error _ -> ()
    end;
    match listen with
    | None ->
        (* stdio: SIGINT and SIGTERM request the same graceful drain —
           stop reading, let the pool finish what it holds *)
        let stopped = ref false in
        set_signals (fun _ -> stopped := true);
        let next = Serve.bounded_next ~max_bytes:max_line stdin in
        let next () =
          (* a signal can interrupt the blocking read; treat it as EOF
             and let the drain path run *)
          try next () with Sys_error _ -> None
        in
        let emit line =
          print_string line;
          print_newline ();
          flush stdout
        in
        finish
          (Tc_scale.Pool.run ~workers ~config ~max_restarts
             ~shed_grace_ms:shed_grace
             ~stop:(fun () -> !stopped)
             ~next ~emit ())
    | Some spec -> (
        let host, port =
          match parse_listen spec with
          | Ok hp -> hp
          | Error m ->
              Fmt.epr "mhc serve: bad --listen %S: %s@." spec m;
              exit 2
        in
        let on_drain_deadline () =
          (* The in-flight tail outlived --drain-timeout: a bounded exit
             was promised, so write the view as it stands and exit 0.
             (The pool summary never materialized; its workers are shed
             with the process.) *)
          write_metrics mfile view;
          (try write_rtrace tfile rtrace with Sys_error _ -> ());
          Fmt.epr "serve: drain timeout reached; remaining work shed@.";
          exit 0
        in
        match
          Tc_net.Net.create ~max_conns ~read_timeout_ms:conn_read_timeout
            ~idle_timeout_ms:conn_idle_timeout ~drain_timeout_ms:drain_timeout
            ~on_drain_deadline ~host ~port ()
        with
        | exception Tc_net.Net.Bind_error m ->
            Fmt.epr "mhc serve: %s@." m;
            exit 2
        | server ->
            set_signals (fun _ -> Tc_net.Net.drain server);
            Fmt.epr "serve: listening on %s:%d (%d worker%s)@." host
              (Tc_net.Net.port server) workers
              (if workers = 1 then "" else "s");
            finish
              (Tc_net.Net.run server ~workers ~max_restarts
                 ~shed_grace_ms:shed_grace ~config ()))
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ opts_term $ timeout_arg $ retries_arg $ backoff_arg $ inject_arg $ metrics_arg
      $ trace_out_arg $ trace_sample_arg $ metrics_every_arg $ workers_arg
      $ cache_mb_arg $ cache_verify_arg $ max_line_arg $ spec_profile_arg
      $ deadline_arg $ cache_dir_arg $ max_restarts_arg $ shed_grace_arg
      $ listen_arg $ max_conns_arg $ conn_read_timeout_arg
      $ conn_idle_timeout_arg $ drain_timeout_arg)

(* ---- bench ---- *)

let bench_serve_cmd =
  let doc =
    "Load-test the serve loop in-process: a cold phase (every request a \
     distinct program — all compile-cache misses) then a hot phase \
     (requests cycling over $(b,--clients) programs — cache hits after one \
     warm-up miss each), through the same worker pool and compile cache \
     $(b,mhc serve) uses. Prints a JSON report with throughput, p50/p99 \
     latency, the hot/cold speedup, cache hit/miss totals, and whether \
     the telemetry invariant held in the merged multi-worker registry; \
     $(b,--out) also writes the BENCH_SERVE.json trajectory rows. With \
     $(b,--connect HOST:PORT) the same experiment runs over TCP against \
     an already-running $(b,mhc serve --listen) server instead: one \
     connection per client thread, client-side wall-time latencies, and \
     the invariant checked from an in-band $(b,metrics) snapshot."
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N"
          ~doc:"Distinct programs the hot phase cycles over.")
  in
  let requests_arg =
    Arg.(
      value & opt int 64
      & info [ "requests" ] ~docv:"M" ~doc:"Requests per phase.")
  in
  let op_arg =
    Arg.(
      value & opt (enum [ ("run", `Run); ("check", `Check) ]) `Run
      & info [ "op" ] ~docv:"OP" ~doc:"Request op: $(b,run) or $(b,check).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory to write BENCH_SERVE.json trajectory rows into.")
  in
  let connect_arg =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Run the experiment over TCP against a running $(b,mhc serve \
             --listen) server at $(docv) instead of in-process.")
  in
  let run clients requests workers cache_mb cache_verify op out deadline_ms
      connect =
    handle_errors @@ fun () ->
    let report =
      match connect with
      | None ->
          Tc_scale.Loadgen.run ~clients ~requests ~workers ~op ~cache_mb
            ~verify_every:cache_verify ~deadline_ms ()
      | Some spec -> (
          match parse_listen spec with
          | Error m ->
              Fmt.epr "mhc bench serve: bad --connect %S: %s@." spec m;
              exit 2
          | Ok (host, port) ->
              Tc_scale.Loadgen.run_socket ~clients ~requests ~op ~host ~port
                ())
    in
    print_string (Json.to_line (Tc_scale.Loadgen.report_json report));
    print_newline ();
    Option.iter
      (fun dir ->
        let path = Tc_scale.Loadgen.write_bench_rows ~dir report in
        Fmt.epr "wrote %s@." path)
      out;
    if not report.Tc_scale.Loadgen.invariant_ok then begin
      Fmt.epr
        "bench serve: telemetry invariant violated (latency counts do not \
         sum to serve/requests)@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ clients_arg $ requests_arg $ workers_arg $ cache_mb_arg
      $ cache_verify_arg $ op_arg $ out_arg $ deadline_arg $ connect_arg)

let bench_cmd =
  let doc = "Scaling benchmarks (load generation against the serve loop)." in
  Cmd.group (Cmd.info "bench" ~doc) [ bench_serve_cmd ]

let main_cmd =
  let doc = "A MiniHaskell compiler implementing type classes by dictionary \
             conversion (Peterson & Jones, PLDI 1993)" in
  Cmd.group (Cmd.info "mhc" ~doc ~version:"1.0.0")
    [ check_cmd; core_cmd; run_cmd; counters_cmd; trace_cmd; profile_cmd;
      disasm_cmd; stats_cmd; repl_cmd; serve_cmd; bench_cmd ]

let () = exit (Cmd.eval main_cmd)
