(** The full compilation pipeline — the library's main entry point.

    [compile] takes MiniHaskell source through lex → layout → parse →
    fixity resolution → static analysis (§4) → desugaring/match
    compilation → type inference with dictionary conversion (§5–§6) →
    dictionary generation → linted core program. One {!options} record
    selects the implementation {!strategy} (nested dictionaries, flat
    dictionaries, or §3 run-time tags) and carries the {!Tc_obs.Trace}
    sink the whole pipeline reports into (context reduction, placeholder
    life cycle, instance lookups, defaulting, optimizer passes).

    [exec] evaluates the result on either backend — the instrumented tree
    evaluator or the bytecode VM — and can collect a per-call-site
    dispatch profile ({!Tc_obs.Profile}); [optimize] applies §8/§9
    optimizer passes, reporting per-pass deltas to the trace sink. *)

open Tc_support
module Class_env = Tc_types.Class_env
module Scheme = Tc_types.Scheme
module Stats = Tc_types.Stats
module Fixity = Tc_syntax.Fixity
module Infer = Tc_infer.Infer
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval
module Counters = Tc_eval.Counters
module Budget = Tc_resilience.Budget

(** How overloading is implemented (paper §3, §4, §8.1). *)
type strategy =
  | Dicts       (** dictionary passing, nested superclass layout (§4) *)
  | Dicts_flat  (** dictionary passing, flat layout (§8.1) *)
  | Tags        (** run-time tag dispatch (§3) *)

(** The canonical spelling, one of {!strategies}. *)
val strategy_name : strategy -> string

(** Every spelling of a strategy that [mhc -s] and the serve [strategy]
    field accept: [dict], [dicts] and [nested]; [dict-flat] and [flat];
    [tags] and [tag]. *)
val strategies : (string * strategy) list

(** How the [Specialise] optimizer pass is driven (paper §9 +
    profile-guided hotness). With [spec_profile] loaded — an
    [mhc profile --emit-spec] artifact parsed by
    {!Tc_obs.Profile.spec_of_json} — only overloaded bindings whose
    bodies account for at least [spec_threshold] profiled dispatches are
    cloned at their concrete instance types; the cold tail keeps
    dictionary dispatch. Without a profile every overloaded binding is a
    candidate (the historical static behavior). [spec_max_clones]
    ([<= 0] disables cloning) and [spec_max_growth] (program-size
    multiple; [<= 0] uncapped) bound code growth. *)
type spec_options = {
  spec_profile : Tc_obs.Profile.spec option;
  spec_threshold : int;
  spec_max_clones : int;
  spec_max_growth : float;
}

(** No profile, threshold 1, 2000 clones, no growth cap. *)
val default_spec : spec_options

type options = {
  strategy : strategy;
  overloaded_literals : bool;
      (** integer literals via [fromInt] ([Num a => a]) *)
  defaulting : bool;  (** resolve ambiguous numeric contexts *)
  include_prelude : bool;
  max_errors : int;
      (** cap on errors recorded by {!compile_collect} before it gives up
          on the file; [<= 0] means unlimited (default 100) *)
  specialise : spec_options;
      (** drives the [Specialise] pass in {!optimize};
          {!default_spec} by default *)
  trace : Tc_obs.Trace.t;
      (** compile-time event sink; {!Tc_obs.Trace.none} (off) by default *)
  metrics : Tc_obs.Metrics.t;
      (** metrics registry every stage reports phase spans into — lex,
          layout, parse, fixity, static analysis, desugaring, inference,
          dictionary construction, final resolution, normalization, each
          optimizer pass, VM lowering, evaluation (rendering, which
          forces the value, included) — as
          wall-clock nanoseconds and allocated words under nested paths
          like ["compile/infer"]; {!Tc_obs.Metrics.disabled} (off, and
          allocation-free) by default. A registry created with a flight
          recorder ({!Tc_obs.Metrics.create}[ ~recorder]) also appends
          every span observation to it as a trace-ID-tagged event while a
          sampled trace is current on the domain (see {!Tc_obs.Rtrace}) *)
}

val default_options : options

(** The checker-level options implied by the pipeline options. *)
val infer_options : options -> Infer.options

(** Canonical rendering of the artifact-relevant {!spec_options} (profile
    digest, threshold, budgets) — compile caches must fold this into
    their keys so differently-specialized artifacts never collide. *)
val spec_signature : options -> string

(** A prelude snapshot: a checked program that compiles extend instead of
    starting from nothing — its static and value environments (every
    type zonked), fixities, normalized core, desugared kernel groups and
    the diagnostics checking it raised. Immutable once built, and shared
    read-only by every domain. *)
type base

type compiled = {
  env : Class_env.t;
  core : Core.program;
  schemes : (Ident.t * Scheme.t) list;       (** all top-level bindings *)
  user_schemes : (Ident.t * Scheme.t) list;  (** excluding the prelude *)
  warnings : Diagnostic.t list;
  checker_stats : Stats.t;
  options : options;
  spec_report : Tc_opt.Specialise.report option;
      (** what the last [Specialise] pass did, once {!optimize} ran one *)
  venv : Infer.venv;     (** tooling: the final value environment *)
  fixities : Fixity.env; (** tooling: the program's fixity table *)
  base : base;           (** the snapshot this compile extended *)
  names : Ident.scope;
      (** its own identifiers; later passes continue them on a copy *)
}

(** Compile a program under [opts.strategy]. Raises {!Diagnostic.Error} on
    the first compile-time error. Under {!Tags} the program is still type
    checked (methods overloaded only in their result type are rejected in
    user code) before the independent §3 translation.

    This is {!compile_collect}'s path, with its recovery boundaries,
    run on a raising {!Diagnostic.Sink}: the error raised is the first
    one {!compile_collect} records, in issue order (only an unlocated one
    differs, gaining its declaration's location when collected), and
    every other exception passes through unwrapped.

    The program extends the process's prelude snapshot for [opts]: checked
    once per process for each combination of layout, literal overloading
    and defaulting, then shared; with [include_prelude] off, the
    {!empty_base}. A snapshot build reports no trace events and no
    phase spans, so [opts.trace] receives the program's own events only.
    The artifact keeps no trace sink. Its [checker_stats] count the
    program's own work only. Its own names are in a fresh
    {!Tc_support.Ident.scope}, whatever the process compiled before. *)
val compile : ?opts:options -> ?file:string -> string -> compiled

(** Builtin types and constructors and the primitives, nothing else.
    [compile_collect_files ~base:(empty_base ()) (prelude :: files)],
    with the prelude source named ["<prelude>"], checks the prelude along
    with the files, and must mean exactly what the snapshot path does. *)
val empty_base : unit -> base

(** The process's own registry: the counter [prelude/snapshot_builds]
    (memoized snapshots built so far), the gauge [prelude/snapshot_words]
    (their total reachable size), and two gauges computed whenever the
    registry is read: [ident/interned] (names in the process-wide
    identifier table) and [gc/major_heap_words] (the major heap's size).
    Every server view folds it in. *)
val process_metrics : Tc_obs.Metrics.t

(** The memoized snapshot [c] extended, with its size in words, when [c]
    shares one: every compile with the prelude does, until it is
    unmarshaled. The process holds each memoized snapshot for its whole
    life; [prelude/snapshot_words] reports their size. *)
val shared_base : compiled -> (base * int) option

(** Words reachable from [c] that it does not share with its snapshot:
    everything when {!shared_base} is [None] (a prelude-less compile, or
    an unmarshaled one, whose snapshot is a private copy), else the
    compile's own core, schemes and diagnostics and its own entries in
    the environments — what a cache entry holding [c] actually keeps
    alive, and all that evicting it can free. *)
val own_words : compiled -> int

(** The outcome of an accumulating compile: every diagnostic recorded (in
    issue order — sort with {!Diagnostic.sort} for display), and the
    compiled artifact when, and only when, no error was recorded.
    Warnings alone do not suppress the artifact. *)
type checked = {
  diagnostics : Diagnostic.t list;
  artifact : compiled option;
}

(** Compile, collecting every diagnostic instead of raising on the first
    error. The front end recovers at natural boundaries — the parser
    resynchronizes at the next top-level declaration; static analysis
    skips a bad declaration; a failed binding group's binders get an error
    scheme that unifies with anything (so one type error never cascades);
    each unresolved placeholder reports independently — and every stage is
    wrapped in an ICE guard that turns an unexpected exception into an
    "internal error in <stage>" diagnostic of severity [Bug]. At most
    [opts.max_errors] errors are recorded. Never raises. It is
    {!compile}'s path on a recovering sink, so it yields an artifact
    exactly when {!compile} succeeds. *)
val compile_collect : ?opts:options -> ?file:string -> string -> checked

(** {!compile_collect} over [(file name, text)] sources, in order, on top
    of [base] (by default the prelude snapshot for [opts], as for
    {!compile}). A file sees the declarations, fixities and top-level
    values of the base and of the files before it; its top level may not
    rebind them, nor may its classes take their names for methods.
    [compile_collect ~file src] is [compile_collect_files [ (file, src) ]]. *)
val compile_collect_files :
  ?opts:options -> ?base:base -> (string * string) list -> checked

type backend = [ `Tree | `Vm ]

(** The spellings of the backends ([tree], [vm]) and of the evaluation
    modes ([lazy], [strict]), shared by [mhc] and [mhc serve]. *)
val backends : (string * backend) list

val modes : (string * [ `Lazy | `Strict ]) list

(** What executing a compiled program produced, on either backend. *)
type result = {
  rendered : string;             (** the rendered value of [main]/[entry] *)
  counters : Counters.t;         (** aggregate dictionary-operation counts *)
  value : Eval.value option;     (** the raw value ([`Tree] backend only) *)
  profile : Tc_obs.Profile.report option;
      (** per-site dispatch profile, when requested *)
}

(** Lower a compiled program to VM bytecode ([mode] is baked in at
    compile time). *)
val bytecode :
  ?mode:[ `Lazy | `Strict ] -> compiled -> Tc_vm.Bytecode.program

(** Backend-agnostic execution: the tree evaluator ([`Tree], the default)
    or the bytecode VM ([`Vm]). Both produce the same rendered value and
    dictionary counters. [budget] (default
    {!Tc_resilience.Budget.unlimited}) bounds steps, frames, wall clock,
    allocations and output size; each backend's unit for steps and frames
    is documented in {!Tc_resilience.Budget}. Exhausting any limit raises
    the classified {!Tc_resilience.Budget.Exhausted} identically on both
    back ends (a native [Stack_overflow] on the tree backend is reported
    as [Frames] exhaustion). [~profile:true] additionally charges every
    [Sel]/[MkDict] executed to its compile-time dispatch site; the
    per-site totals sum exactly to the aggregate [counters]. *)
val exec :
  ?backend:backend ->
  ?mode:[ `Lazy | `Strict ] ->
  ?budget:Budget.t ->
  ?entry:Ident.t ->
  ?profile:bool ->
  compiled ->
  result

(** The qualified type of a standalone expression against a compiled
    program's environment (the REPL's [:type]). *)
val expression_type : compiled -> string -> string

(** Apply an optimizer pipeline (re-linting the result). Each pass reports
    an [Opt_pass] event — program size and static [Sel]/[MkDict] deltas —
    to the compile's trace sink. The [Specialise] pass runs under
    [options.specialise]: a loaded profile is remapped onto the current
    core's site table ({!Tc_obs.Profile.counts_for}) so only hot bindings
    are cloned, and the pass's typed report lands in [spec_report], in
    [opt/spec/*] metrics counters, and in a [Spec_report] trace event. *)
val optimize : Tc_opt.Opt.pass list -> compiled -> compiled

(** The identifier [name] resolves to in [c]: a binding of [c.core], an
    [entry] to {!exec}, or one equal to nothing in [c]. *)
val ident : compiled -> string -> Ident.t
