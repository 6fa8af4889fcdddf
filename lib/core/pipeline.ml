(** The full compilation pipeline — the library's main entry point.

    [compile] takes MiniHaskell source text through:
    lex → layout → parse → fixity resolution → static analysis (§4) →
    desugaring/match compilation → type inference with dictionary
    conversion (§5–6) → dictionary generation → core program. One
    [options] record selects the implementation strategy (nested
    dictionaries, flat dictionaries, or §3 run-time tags) and carries the
    observability sink ({!Tc_obs.Trace}) that the whole pipeline reports
    into.

    [exec] evaluates the result on either backend (tree evaluator or
    bytecode VM), optionally collecting a per-call-site dispatch profile
    ({!Tc_obs.Profile}). *)

open Tc_support
module Ast = Tc_syntax.Ast
module Parser = Tc_syntax.Parser
module Fixity = Tc_syntax.Fixity
module Class_env = Tc_types.Class_env
module Static = Tc_types.Static
module Scheme = Tc_types.Scheme
module Ty = Tc_types.Ty
module Stats = Tc_types.Stats
module Desugar = Tc_desugar.Desugar
module Kernel = Tc_desugar.Kernel
module Infer = Tc_infer.Infer
module Prims = Tc_infer.Prims
module Core = Tc_core_ir.Core
module Lint = Tc_core_ir.Lint
module Layout = Tc_dicts.Layout
module Construct = Tc_dicts.Construct
module Eval = Tc_eval.Eval
module Counters = Tc_eval.Counters
module Trace = Tc_obs.Trace
module Profile = Tc_obs.Profile
module Metrics = Tc_obs.Metrics
module Span = Tc_obs.Span
module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject

let err = Diagnostic.errorf

(* ------------------------------------------------------------------ *)
(* Options.                                                            *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Dicts       (* dictionary passing, nested superclass layout (§4) *)
  | Dicts_flat  (* dictionary passing, flat layout (§8.1) *)
  | Tags        (* run-time tag dispatch (§3) *)

let strategy_name = function
  | Dicts -> "dicts"
  | Dicts_flat -> "dict-flat"
  | Tags -> "tags"

(* Every spelling the front doors accept, mapped to its value. *)
let strategies =
  [
    ("dict", Dicts); ("dicts", Dicts); ("nested", Dicts);
    ("dict-flat", Dicts_flat); ("flat", Dicts_flat);
    ("tags", Tags); ("tag", Tags);
  ]

(* Specializer options: how the [Specialise] optimizer pass is driven.
   With a profile loaded, only hot bindings (>= threshold profiled
   dispatches in their body) are cloned; without one every overloaded
   binding is a candidate. The budgets bound code growth either way. *)
type spec_options = {
  spec_profile : Profile.spec option;  (* loaded dispatch profile *)
  spec_threshold : int;                (* hotness threshold, in hits *)
  spec_max_clones : int;               (* <= 0 disables cloning *)
  spec_max_growth : float;             (* size multiple cap; <= 0 off *)
}

let default_spec =
  let p = Tc_opt.Specialise.default_policy in
  {
    spec_profile = None;
    spec_threshold = p.hot_threshold;
    spec_max_clones = p.max_clones;
    spec_max_growth = p.max_growth;
  }

type options = {
  strategy : strategy;
  overloaded_literals : bool;  (* integer literals via fromInt (Num a => a) *)
  defaulting : bool;           (* resolve ambiguous numeric contexts *)
  include_prelude : bool;
  max_errors : int;            (* accumulating-mode error cap; <= 0 unlimited *)
  specialise : spec_options;   (* drives the Specialise optimizer pass *)
  trace : Trace.t;             (* compile-time event sink; off by default *)
  metrics : Metrics.t;         (* phase spans + counters; off by default *)
}

let default_options =
  {
    strategy = Dicts;
    overloaded_literals = true;
    defaulting = true;
    include_prelude = true;
    max_errors = 100;
    specialise = default_spec;
    trace = Trace.none;
    metrics = Metrics.disabled;
  }

(* The artifact-relevant rendering of the spec options, for compile-cache
   keys: two compiles whose signatures differ must not share an optimized
   artifact. *)
let spec_signature (o : options) : string =
  let s = o.specialise in
  Printf.sprintf "profile=%s;threshold=%d;clones=%d;growth=%g"
    (match s.spec_profile with
     | None -> "-"
     | Some sp -> Profile.spec_digest sp)
    s.spec_threshold s.spec_max_clones s.spec_max_growth

(** The checker-level options implied by the pipeline options. Under [Tags]
    the program is still checked with the nested dictionary translation
    (for safety and reported types) before the independent §3 translation
    replaces the core program. *)
let infer_options (o : options) : Infer.options =
  {
    Infer.strategy =
      (match o.strategy with
       | Dicts_flat -> Layout.Flat
       | Dicts | Tags -> Layout.Nested);
    overloaded_literals = o.overloaded_literals;
    defaulting = o.defaulting;
  }

(** A checked program that compiles extend: the prelude snapshot (see
    "Prelude snapshots" below). Built once, then only read — on any
    domain. *)
type base = {
  b_env : Class_env.t;             (* after static analysis; its tables are
                                      never written through this record *)
  b_fixities : Fixity.env;
  b_venv : Infer.venv;             (* zonked schemes of the top level *)
  b_core : Core.program;           (* normalized: the default-method,
                                      instance-method and dictionary
                                      bindings included *)
  b_groups : Kernel.group list;    (* desugared, for the §3 tag translation *)
  b_outer : Ident.Set.t;           (* top-level values and primitives: names
                                      a later file may not rebind *)
  b_globals : Ident.Set.t;         (* every top-level core binding, and the
                                      primitives *)
  b_diagnostics : Diagnostic.t list;  (* what checking it reported, in
                                         issue order (warnings only) *)
}

type compiled = {
  env : Class_env.t;
  core : Core.program;
  user_schemes : (Ident.t * Scheme.t) list;  (* excluding the prelude *)
  warnings : Diagnostic.t list;
  checker_stats : Stats.t;
  options : options;
  spec_report : Tc_opt.Specialise.report option;
      (* what the last Specialise pass did, once [optimize] ran one *)
  (* tooling hooks (REPL, :type): the final value environment and the
     fixity table of the compiled program *)
  venv : Infer.venv;
  fixities : Fixity.env;
  base : base;  (* the snapshot this compile extended *)
  names : Ident.scope;  (* its identifiers; never written once returned *)
}

(* ------------------------------------------------------------------ *)
(* Instance bodies: extract method definitions as function bindings.   *)
(* ------------------------------------------------------------------ *)

let fun_binds_of_body (decls : Ast.decl list) : (Ident.t * Ast.fun_bind) list =
  let grouped = Ast.group_decls decls in
  List.filter_map
    (fun b ->
      match b with
      | Ast.BFun fb -> Some (fb.fb_name, fb)
      | Ast.BPat ({ p = Ast.PVar m; _ }, rhs, loc) ->
          Some
            ( m,
              {
                Ast.fb_name = m;
                fb_equations = [ { eq_pats = []; eq_rhs = rhs } ];
                fb_loc = loc;
              } )
      | Ast.BPat _ -> None)
    grouped.g_binds

(** The signature an instance's method implementation must satisfy: the
    method's declared type with the class variable replaced by the instance
    head, qualified by the instance context (then any extra method
    context, §8.5). The context order fixes the dictionary parameters,
    matching {!Tc_dicts.Construct}. *)
let impl_signature (env : Class_env.t) (inst : Class_env.inst_info)
    (mi : Class_env.method_info) : Ast.sqtyp =
  let ci = Class_env.class_exn env mi.mi_class in
  (* freshen head variables to avoid capturing the method sig's variables *)
  let params' = List.map (fun p -> Ident.gensym (Ident.text p)) inst.in_params in
  (if Tc_types.Tycon.is_tuple { Tc_types.Tycon.name = inst.in_tycon;
                                arity = List.length params' }
   then ignore (Class_env.tuple_con env (List.length params')));
  let head =
    List.fold_left
      (fun acc p -> Ast.TSApp (acc, Ast.TSVar p))
      (Ast.TSCon inst.in_tycon) params'
  in
  let inst_preds =
    List.concat
      (List.mapi
         (fun i ctx ->
           List.map
             (fun c ->
               { Ast.sp_class = c;
                 sp_ty = Ast.TSVar (List.nth params' i);
                 sp_loc = inst.in_loc })
             ctx)
         (Array.to_list inst.in_context))
  in
  let subst = [ (ci.ci_var, head) ] in
  {
    Ast.sq_context = inst_preds @ mi.mi_sig.sq_context;
    sq_ty = Tc_types.Elaborate.subst_styp subst mi.mi_sig.sq_ty;
    sq_loc = inst.in_loc;
  }

(** The signature of a default method: the method's type qualified by the
    class constraint itself (the default receives the class dictionary). *)
let default_signature (env : Class_env.t) (mi : Class_env.method_info) :
    Ast.sqtyp =
  let ci = Class_env.class_exn env mi.mi_class in
  {
    Ast.sq_context =
      { Ast.sp_class = mi.mi_class;
        sp_ty = Ast.TSVar ci.ci_var;
        sp_loc = ci.ci_loc }
      :: mi.mi_sig.sq_context;
    sq_ty = mi.mi_sig.sq_ty;
    sq_loc = ci.ci_loc;
  }

(* ------------------------------------------------------------------ *)
(* Compilation.                                                        *)
(* ------------------------------------------------------------------ *)

let top_decl_loc : Ast.top_decl -> Loc.t = function
  | Ast.TData d -> d.td_loc
  | Ast.TSyn s -> s.ts_loc
  | Ast.TClass c -> c.tc_loc
  | Ast.TInstance i -> i.ti_loc
  | Ast.TDecl (Ast.DSig (_, _, l))
  | Ast.TDecl (Ast.DFun (_, _, l))
  | Ast.TDecl (Ast.DPat (_, _, l))
  | Ast.TDecl (Ast.DFix (_, _, _, l)) -> l

(** The empty snapshot: the builtin types and constructors and the
    primitives. A compile that extends it with the prelude as its first
    file is the reference the prelude snapshot must agree with. *)
let empty_base () : base =
  let prims = Ident.Set.of_list Prims.names in
  {
    b_env = Class_env.create ();
    b_fixities = Fixity.builtin;
    b_venv = Ident.Map.empty;
    b_core = { Core.p_binds = []; p_main = None };
    b_groups = [];
    b_outer = prims;
    b_globals = prims;
    b_diagnostics = [];
  }

(* What the front end made of a compile's own files. *)
type front = {
  f_groups : Kernel.group list;  (* desugared top-level groups, file order *)
  f_fixities : Fixity.env;
  f_outer : Ident.Set.t;         (* the base's outer names and these files' *)
}

(** Front end shared by both implementation strategies: parse, fixity
    resolution, static analysis and desugaring of each file in turn into
    [env], which extends [base]'s. A file sees the declarations, fixities
    and top-level values of the base and of the files before it, and its
    own; its top level is one binding block that may not rebind an
    earlier file's names.

    Each stage reports to [env]'s sink at its natural boundary: the
    parser resynchronizes at the next top-level declaration, fixity
    resolution and static analysis skip the offending declaration, and
    desugaring skips the offending binding or degrades to an empty
    block. A raising sink makes the first error raise instead. [faults]
    arms the fault injection points. *)
let front ~metrics ~faults ~(base : base) ~(env : Class_env.t)
    (files : (string * string) list) : front =
  let sink = env.Class_env.sink in
  let hit point = if faults then Inject.hit point in
  let one (fenv, outer, groups) (file, src) =
    hit Inject.Lex;
    let toks =
      Span.wrap metrics "lex" (fun () ->
          Tc_syntax.Lexer.tokenize ~file src)
    in
    let toks =
      Span.wrap metrics "layout" (fun () -> Tc_syntax.Layout.layout toks)
    in
    let prog =
      Span.wrap metrics "parse" (fun () ->
          Parser.parse_program_tokens ~sink toks)
    in
    hit Inject.Parse;
    let prog, fenv =
      Span.wrap metrics "fixity" (fun () ->
          let fenv = Fixity.collect_program fenv prog in
          (* per-declaration recovery: a bad operator sequence loses only
             its own declaration *)
          ( List.filter_map
              (fun d ->
                Diagnostic.guard ~sink ~stage:"fixity resolution"
                  ~loc:(top_decl_loc d)
                  ~recover:(fun () -> None)
                  (fun () -> Some (Fixity.top_decl fenv d)))
              prog,
            fenv ))
    in
    hit Inject.Static;
    let { Static.value_decls; _ } =
      Span.wrap metrics "static" (fun () ->
          Static.process ~env ~outer prog)
    in
    let file_groups =
      Span.wrap metrics "desugar" (fun () ->
          Diagnostic.guard ~sink ~stage:"desugaring" ~loc:Loc.none
            ~recover:(fun () -> [])
            (fun () -> Desugar.top_decls ~sink ~outer env value_decls))
    in
    let outer =
      List.fold_left
        (fun s g ->
          List.fold_left
            (fun s (b : Kernel.bind) -> Ident.Set.add b.kb_name s)
            s (Kernel.binds_of_group g))
        outer file_groups
    in
    (fenv, outer, List.rev_append file_groups groups)
  in
  let fenv, outer, groups_rev =
    List.fold_left one (base.b_fixities, base.b_outer, []) files
  in
  { f_groups = List.rev groups_rev; f_fixities = fenv; f_outer = outer }

let is_base_class (base : base) (ci : Class_env.class_info) =
  match Class_env.find_class base.b_env ci.ci_name with
  | Some ci' -> ci' == ci
  | None -> false

let is_base_instance (base : base) (inst : Class_env.inst_info) =
  match
    Class_env.find_instance base.b_env ~cls:inst.in_class ~tycon:inst.in_tycon
  with
  | Some inst' -> inst' == inst
  | None -> false

(** The one compile path: check [files], in order, on top of [base] under
    the dictionary-passing translation (both layouts). Only what the files
    add is processed — their bindings, the default methods of their
    classes, the methods and dictionaries of their instances (including
    instances of the base's classes) — and the base's normalized core is
    prepended unchanged. Diagnostics go to [sink]. Each binding group is
    a fault-isolation boundary: with a recovering sink, a failed group's
    binders get {!Infer.error_scheme} (which unifies with anything and
    never re-reports) and checking continues with the remaining groups;
    with a raising sink, the first error raises. Also returns the front
    end's result, from which a snapshot is frozen. *)
let extend ~sink ~faults ~(opts : options) ~(base : base) ~names
    (files : (string * string) list) : compiled * front =
  Stats.reset ();
  let metrics = opts.metrics in
  let iopts = infer_options opts in
  let env = Class_env.extend ~sink base.b_env in
  (* the base's own diagnostics come first, as if it had been checked
     with these files *)
  List.iter (Diagnostic.Sink.report env.sink) base.b_diagnostics;
  let fr = front ~metrics ~faults ~base ~env files in
  env.Class_env.trace <- opts.trace;
  let st = Infer.create_state ~opts:iopts env in
  Infer.push_scope st;
  (* a stand-in body for bindings whose real translation failed; never
     executed because an erroneous compile yields no artifact *)
  let stub_expr name =
    Core.App
      ( Core.Var Prims.p_failure,
        Core.Lit
          (Tc_syntax.Ast.LString
             (Printf.sprintf "erroneous binding '%s'" (Ident.text name))) )
  in
  (* primitive schemes mention Bool, so they are built against this
     compile's environment *)
  let venv0 =
    List.fold_left
      (fun m (name, scheme) -> Ident.Map.add name (Infer.Poly scheme) m)
      base.b_venv (Prims.schemes env)
  in
  if faults then begin
    Inject.hit Inject.Infer;
    Inject.hit Inject.Oom
  end;
  (* the files' value bindings, in dependency order *)
  let check_group (venv, gs, ss) g =
    List.iter
      (fun (b : Kernel.bind) ->
        if Class_env.find_method env b.kb_name <> None then
          err ~loc:b.kb_loc
            "'%a' is a class method and cannot be redefined at the top \
             level"
            Ident.pp b.kb_name)
      (Kernel.binds_of_group g);
    let venv', cg = Infer.infer_group st venv g in
    let ss' =
      List.fold_left
        (fun ss (b : Kernel.bind) ->
          match Ident.Map.find_opt b.kb_name venv' with
          | Some (Infer.Poly s) ->
              (b.kb_name, s, b.kb_loc.Tc_support.Loc.file) :: ss
          | _ -> ss)
        ss (Kernel.binds_of_group g)
    in
    (venv', cg :: gs, ss')
  in
  let venv, groups_rev, schemes_rev =
    Span.wrap metrics "infer" @@ fun () ->
    List.fold_left
      (fun ((venv, gs, ss) as acc) g ->
        let binds = Kernel.binds_of_group g in
        let loc =
          match binds with b :: _ -> b.Kernel.kb_loc | [] -> Loc.none
        in
        Infer.protect st ~stage:"type inference" ~loc
          ~recover:(fun () ->
            let venv' =
              List.fold_left
                (fun m (b : Kernel.bind) ->
                  Ident.Map.add b.kb_name
                    (Infer.Poly (Infer.error_scheme ()))
                    m)
                venv binds
            in
            let cg =
              Core.Rec
                (List.map
                   (fun (b : Kernel.bind) ->
                     { Core.b_name = b.kb_name; b_expr = stub_expr b.kb_name })
                   binds)
            in
            (venv', cg :: gs, ss))
          (fun () -> check_group acc g))
      (venv0, [], []) fr.f_groups
  in
  (* the classes and instances these files declared *)
  let classes =
    List.filter
      (fun ci -> not (is_base_class base ci))
      (Class_env.all_classes env)
  in
  let instances =
    List.filter
      (fun inst -> not (is_base_instance base inst))
      (Class_env.all_instances env)
  in
  let default_binds, missing_default_binds, impl_binds =
    Span.wrap metrics "methods" @@ fun () ->
  (* default methods *)
  let default_binds =
    List.concat_map
      (fun (ci : Class_env.class_info) ->
        List.map
          (fun (m, (fb : Ast.fun_bind)) ->
            let name = Class_env.default_name ~cls:ci.ci_name ~meth:m in
            Infer.protect st ~stage:"default method checking" ~loc:fb.fb_loc
              ~recover:(fun () ->
                { Core.b_name = name; b_expr = stub_expr name })
              (fun () ->
                let mi = Option.get (Class_env.find_method env m) in
                let q = default_signature env mi in
                let expr = Desugar.fun_bind_expr env fb in
                let b, _ =
                  Infer.check_signature_binding st venv ~name ~q ~loc:fb.fb_loc
                    expr
                in
                b))
          ci.ci_defaults)
      classes
  in
  (* methods without a default, omitted by a new instance (of any class):
     a stub that fails at run time when actually called, unless the base
     already binds one *)
  let missing_default_binds =
    List.concat_map
      (fun (ci : Class_env.class_info) ->
        List.filter_map
          (fun m ->
            let name () = Class_env.default_name ~cls:ci.ci_name ~meth:m in
            if
              (not (List.mem_assoc m ci.ci_defaults))
              && List.exists
                   (fun (inst : Class_env.inst_info) ->
                     Ident.equal inst.in_class ci.ci_name
                     && List.assoc_opt m inst.in_impls
                        = Some Class_env.Default_impl)
                   instances
              && not (Ident.Set.mem (name ()) base.b_globals)
            then
              Some
                {
                  Core.b_name = name ();
                  b_expr =
                    Core.Lam
                      ( [ Ident.gensym "d$unused" ],
                        Core.App
                          ( Core.Var Prims.p_failure,
                            Core.Lit
                              (Tc_syntax.Ast.LString
                                 (Printf.sprintf "no definition for method %s"
                                    (Ident.text m))) ) );
                }
            else None)
          ci.ci_methods)
      (Class_env.all_classes env)
  in
  (* instance method implementations *)
  let impl_binds =
    List.concat_map
      (fun (inst : Class_env.inst_info) ->
        let bodies = fun_binds_of_body inst.in_body in
        List.filter_map
          (fun (m, impl) ->
            match impl with
            | Class_env.Default_impl -> None
            | Class_env.User_impl impl_name ->
                Some
                  (Infer.protect st ~stage:"instance method checking"
                     ~loc:inst.in_loc
                     ~recover:(fun () ->
                       { Core.b_name = impl_name;
                         b_expr = stub_expr impl_name })
                     (fun () ->
                       let fb = List.assoc m bodies in
                       let mi = Option.get (Class_env.find_method env m) in
                       let q = impl_signature env inst mi in
                       let expr = Desugar.fun_bind_expr env fb in
                       let b, _ =
                         Infer.check_signature_binding st venv ~name:impl_name
                           ~q ~loc:fb.fb_loc expr
                       in
                       b)))
          inst.in_impls)
      instances
  in
  (default_binds, missing_default_binds, impl_binds)
  in
  (* dictionary bindings (mechanical, §4) *)
  if faults then Inject.hit Inject.Translate;
  let dict_binds =
    Span.wrap metrics "dicts" (fun () ->
        Infer.protect st ~stage:"dictionary construction" ~loc:Loc.none
          ~recover:(fun () -> [])
          (fun () ->
            List.map
              (Construct.instance_dict_binding env iopts.strategy)
              instances))
  in
  Span.wrap metrics "resolve" (fun () -> Infer.final_resolve st);
  (* checking is over: the artifact keeps no sink, so it stays plain data *)
  env.Class_env.trace <- Trace.none;
  let program : Core.program =
    if Diagnostic.Sink.has_errors sink then
      (* diagnostics were recorded; the caller discards the artifact, so
         skip the mechanical back half rather than run it over stubs *)
      { p_binds = []; p_main = None }
    else
      Span.wrap metrics "normalize" @@ fun () ->
      Infer.protect st ~stage:"core normalization" ~loc:Loc.none
        ~recover:(fun () -> { Core.p_binds = []; p_main = None })
        (fun () ->
          let main_id = Ident.intern "main" in
          let groups = List.rev groups_rev in
          let p_main =
            if
              List.exists
                (fun g ->
                  List.exists
                    (fun (b : Core.bind) -> Ident.equal b.b_name main_id)
                    (Core.binds_of_group g))
                groups
            then Some main_id
            else None
          in
          (* the files' own core; the base's is normalized already *)
          let own : Core.program =
            {
              p_binds =
                groups
                @ List.map
                    (fun b -> Core.Nonrec b)
                    (default_binds @ missing_default_binds @ impl_binds
                   @ dict_binds);
              p_main;
            }
          in
          let own = Core.regroup (Core.squash_program own) in
          Lint.check_program ~scope:base.b_globals ~primitives:Prims.names own;
          { own with p_binds = base.b_core.p_binds @ own.p_binds })
  in
  let compiled =
    {
      env;
      core = program;
      user_schemes =
        List.filter_map
          (fun (n, s, f) -> if f = "<prelude>" then None else Some (n, s))
          (List.rev schemes_rev);
      warnings = Diagnostic.Sink.warnings env.sink;
      checker_stats = Stats.snapshot ();
      options = opts;
      spec_report = None;
      venv;
      fixities = fr.f_fixities;
      base;
      names;
    }
  in
  (compiled, fr)

(* ------------------------------------------------------------------ *)
(* Prelude snapshots.                                                  *)
(* ------------------------------------------------------------------ *)

(* Freeze a checked compile into a snapshot later compiles extend. Every
   type a snapshot holds is zonked (no [Link] left), so instantiating its
   schemes on several domains at once never writes into it; and every
   variable in it must be generic and quantified, since instantiation
   shares any other variable with the instance, where a later compile
   could unify it or lower its level. *)
let freeze (c : compiled) (fr : front) (sink : Diagnostic.Sink.sink) : base =
  let frozen ~(vars : Ty.tyvar list) ty =
    let ty = Ty.zonk ty in
    let quantified (tv : Ty.tyvar) =
      Ty.is_generic tv && List.exists (fun (v : Ty.tyvar) -> v == tv) vars
    in
    if not (List.for_all quantified (Ty.free_vars ty)) then
      failwith
        (Fmt.str "snapshot type %a has a free unquantified variable" Ty.pp ty);
    ty
  in
  let scheme (s : Scheme.t) =
    { s with Scheme.ty = frozen ~vars:s.vars s.ty }
  in
  let venv =
    Ident.Map.map
      (function
        | Infer.Poly s -> Infer.Poly (scheme s)
        | Infer.Mono _ | Infer.Recursive _ ->
            failwith "snapshot value environment has a monomorphic entry")
      c.venv
  in
  let env = Class_env.extend c.env in
  env.datacons <-
    Ident.Map.map
      (fun (ci : Class_env.con_info) ->
        {
          ci with
          con_scheme = scheme ci.con_scheme;
          con_args = List.map (frozen ~vars:ci.con_params) ci.con_args;
        })
      env.datacons;
  {
    b_env = env;
    b_fixities = c.fixities;
    b_venv = venv;
    b_core = c.core;
    b_groups = c.base.b_groups @ fr.f_groups;
    b_outer = fr.f_outer;
    b_globals =
      List.fold_left
        (fun s g ->
          List.fold_left
            (fun s (b : Core.bind) -> Ident.Set.add b.b_name s)
            s (Core.binds_of_group g))
        c.base.b_globals c.core.p_binds;
    b_diagnostics = Diagnostic.Sink.diagnostics sink;
  }

(* Check the prelude on the empty snapshot and freeze the result. The
   build reports no events or phase spans and arms no fault injection: it
   belongs to the process, not to the request that happens to trigger
   it. *)
let build_prelude (opts : options) : base =
  let opts =
    { opts with max_errors = 0; trace = Trace.none; metrics = Metrics.disabled }
  in
  let sink = Diagnostic.Sink.create () in
  let c, fr =
    extend ~sink ~faults:false ~opts ~base:(empty_base ())
      ~names:(Ident.scope ())
      [ ("<prelude>", Tc_prelude.Prelude.source) ]
  in
  (match Diagnostic.Sink.first_error sink with
   | Some d ->
       failwith ("the prelude does not check: " ^ Diagnostic.to_string d)
   | None -> ());
  freeze c fr sink

(* The memoized snapshots, one per combination of the options a prelude
   check depends on — layout, literal overloading, defaulting — with
   their sizes in words. Guarded by a mutex rather than built under
   [lazy]: pool workers race to the first compile, and forcing one lazy
   from two domains raises [CamlinternalLazy.Undefined]. The build runs
   with the lock held, so each combination is built exactly once. *)
let snapshots : ((Layout.strategy * bool * bool) * base * int) list ref = ref []
let snapshots_lock = Mutex.create ()

(* The process's own instruments. The memory gauges are probes: read
   when a view is, never per request. *)
let process_metrics = Metrics.create ()
let snapshot_builds = Metrics.counter process_metrics "prelude/snapshot_builds"
let snapshot_words = Metrics.gauge process_metrics "prelude/snapshot_words"

let () =
  Metrics.probe process_metrics "ident/interned" Ident.interned;
  Metrics.probe process_metrics "gc/major_heap_words" (fun () ->
      (Gc.quick_stat ()).Gc.heap_words)

(** The snapshot a compile under [opts] extends: the empty one without
    the prelude, else the process's memoized prelude snapshot for
    [opts]. *)
let base_for (opts : options) : base =
  if not opts.include_prelude then empty_base ()
  else
    let key =
      ((infer_options opts).Infer.strategy, opts.overloaded_literals,
       opts.defaulting)
    in
    Mutex.protect snapshots_lock @@ fun () ->
    match List.find_opt (fun (k, _, _) -> k = key) !snapshots with
    | Some (_, b, _) -> b
    | None ->
        (* interned process-wide: every compile shares these names *)
        let b = Ident.unscoped (fun () -> build_prelude opts) in
        snapshots := (key, b, Obj.reachable_words (Obj.repr b)) :: !snapshots;
        Metrics.incr snapshot_builds;
        Metrics.set snapshot_words
          (List.fold_left (fun n (_, _, w) -> n + w) 0 !snapshots);
        b

let shared_base (c : compiled) : (base * int) option =
  Mutex.protect snapshots_lock @@ fun () ->
  List.find_map
    (fun (_, b, words) -> if b == c.base then Some (b, words) else None)
    !snapshots

(** Words reachable from [c] that it does not share with its snapshot:
    the whole artifact when the snapshot is private (unmarshaled or
    empty), else the compile's own core, user schemes, diagnostics and its
    entries in the environments. *)
let own_words (c : compiled) : int =
  match shared_base c with
  | None -> Obj.reachable_words (Obj.repr c)
  | Some (b, _) ->
      (* a list whose prefix is physically the snapshot's: the rest, and
         the words of the prefix's own spine *)
      let rec suffix l shared spine =
        match (l, shared) with
        | x :: l', y :: shared' when x == y -> suffix l' shared' (spine + 3)
        | _ -> (l, spine)
      in
      let own_entries base m =
        Ident.Map.filter
          (fun k v ->
            match Ident.Map.find_opt k base with
            | Some v' -> v != v'
            | None -> true)
          m
      in
      let env = c.env and benv = b.b_env in
      let env =
        {
          env with
          Class_env.tycons = own_entries benv.tycons env.tycons;
          datacons = own_entries benv.datacons env.datacons;
          synonyms = own_entries benv.synonyms env.synonyms;
          classes = own_entries benv.classes env.classes;
          methods = own_entries benv.methods env.methods;
          instances =
            Ident.Map.filter_map
              (fun cls insts ->
                let own =
                  match Ident.Map.find_opt cls benv.instances with
                  | Some binsts -> own_entries binsts insts
                  | None -> insts
                in
                if Ident.Map.is_empty own then None else Some own)
              env.instances;
        }
      in
      let groups, spine = suffix c.core.p_binds b.b_core.p_binds 0 in
      spine
      + Obj.reachable_words
          (Obj.repr
             ( env,
               own_entries b.b_venv c.venv,
               own_entries b.b_fixities c.fixities,
               groups,
               c.user_schemes,
               c.names,
               (c.warnings, c.checker_stats, c.options, c.spec_report) ))

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

(* Under [Tags], after ordinary checking: the independent §3 translation
   of the checked compile's own front end [fr], over the snapshot's kernel
   groups and the files' together — a new instance changes how the
   prelude dispatches. (The tag translation treats integer literals as
   monomorphic Int, as ML does: code that relies on return-type
   overloading of literals misbehaves under tags, which is part of the
   point of §3.) *)
let tag_translate (checked : compiled) fr : compiled =
  let opts = checked.options in
  Span.wrap opts.metrics "tags" @@ fun () ->
  let core =
    Tc_tagdispatch.Tagdispatch.translate_program checked.env
      (checked.base.b_groups @ fr.f_groups)
  in
  Lint.check_program ~primitives:Prims.names core;
  { checked with core }

(* The one compile path: the dictionary-passing check of [files] on [base] —
   by default the snapshot for [opts], whose acquisition (a build, the
   first time) is the [prelude] phase span — then, under [Tags] and only
   when no error was recorded, the §3 translation. In a fresh identifier
   scope. *)
let check_files ~sink ~(opts : options) ?base files : compiled =
  let names = Ident.scope () in
  Ident.with_scope names @@ fun () ->
  let checked, fr =
    Span.wrap opts.metrics "compile" @@ fun () ->
    let base =
      match base with
      | Some b -> b
      | None ->
          Span.wrap opts.metrics "prelude" (fun () ->
              base_for opts)
    in
    extend ~sink ~faults:true ~opts ~base ~names files
  in
  match opts.strategy with
  | Dicts | Dicts_flat -> checked
  | Tags ->
      if Diagnostic.Sink.has_errors sink then checked
      else
        Diagnostic.guard ~sink ~stage:"tag translation" ~loc:Loc.none
          ~recover:(fun () -> checked)
          (fun () -> tag_translate checked fr)

let compile ?(opts = default_options) ?(file = "<input>") (src : string) :
    compiled =
  check_files ~sink:(Diagnostic.Sink.raising ()) ~opts [ (file, src) ]

(* ------------------------------------------------------------------ *)
(* Accumulating compilation.                                           *)
(* ------------------------------------------------------------------ *)

type checked = {
  diagnostics : Diagnostic.t list;  (* in issue order *)
  artifact : compiled option;       (* [Some] iff no errors were recorded *)
}

(** Compile, collecting every diagnostic instead of raising on the first
    error: {!compile}'s path on a recovering sink. Recovery
    boundaries: top-level declaration (parser, fixity, static analysis),
    binding group / signature binding (inference), placeholder (final
    resolution), plus an ICE guard around every stage; the error cap is
    [opts.max_errors]. Never raises: a fatal error outside any boundary
    (lexer, layout) and any unexpected exception end up in [diagnostics]
    too. *)
let compile_collect_files ?(opts = default_options) ?base files : checked =
  let sink = Diagnostic.Sink.create ~max_errors:opts.max_errors () in
  let safe_report d =
    try Diagnostic.Sink.report sink d
    with Diagnostic.Sink.Limit_reached -> ()
  in
  let artifact =
    match check_files ~sink ~opts ?base files with
    | c -> if Diagnostic.Sink.has_errors sink then None else Some c
    | exception Diagnostic.Sink.Limit_reached ->
        safe_report
          (Diagnostic.make ~severity:Diagnostic.Warning ~loc:Loc.none
             (Printf.sprintf
                "too many errors (more than %d); giving up on this file"
                opts.max_errors));
        None
    | exception Diagnostic.Error d ->
        (* fatal error outside any recovery boundary (lexer, layout) *)
        safe_report d;
        None
    | exception Out_of_memory -> raise Out_of_memory
    | exception e ->
        safe_report (Diagnostic.of_exn ~stage:"compilation" ~loc:Loc.none e);
        None
  in
  { diagnostics = Diagnostic.Sink.diagnostics sink; artifact }

let compile_collect ?opts ?(file = "<input>") (src : string) : checked =
  compile_collect_files ?opts [ (file, src) ]

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)
(* ------------------------------------------------------------------ *)

type backend = [ `Tree | `Vm ]

let backends : (string * backend) list = [ ("tree", `Tree); ("vm", `Vm) ]
let modes = [ ("lazy", `Lazy); ("strict", `Strict) ]
let default_backend : backend = `Tree
let default_mode : [ `Lazy | `Strict ] = `Lazy

type result = {
  rendered : string;
  counters : Counters.t;
  profile : Profile.report option;      (* when requested *)
}

(** Lower a compiled program to bytecode. The [mode] is baked in at
    compile time: lazy code delays arguments and let bindings, strict code
    evaluates them inline (dictionary fields stay delayed in both). *)
let bytecode ?(mode = default_mode) (c : compiled) : Tc_vm.Bytecode.program =
  let cons = Eval.con_table_of_env c.env in
  Tc_vm.Compile.program ~mode ~cons c.core

(** Backend-agnostic execution: run on the tree evaluator or compile to
    bytecode and run on the stack VM. Both report the same rendered value
    and the same dictionary counters, and exhaust the same [budget]
    limits with the same classified {!Tc_resilience.Budget.Exhausted}
    (a native [Stack_overflow] on the tree backend is classified as
    [Frames] exhaustion too). With [~profile:true], every [Sel]/[MkDict]
    executed is also charged to its compile-time dispatch site and the
    result carries the ranked report. *)
let exec ?(backend = default_backend) ?(mode = default_mode)
    ?(budget = Budget.unlimited) ?entry ?(profile = false) (c : compiled) :
    result =
  let metrics = c.options.metrics in
  Span.wrap metrics "exec" @@ fun () ->
  let cons = Eval.con_table_of_env c.env in
  let prt = if profile then Some (Profile.create_rt ()) else None in
  let finish ~meter ~rendered ~counters =
    Budget.check_output meter (String.length rendered);
    let report =
      Option.map
        (fun prt -> Profile.make ~sites:(Profile.site_table c.core) prt)
        prt
    in
    { rendered; counters; profile = report }
  in
  match backend with
  | `Tree -> (
      let st = Eval.create_state ~mode ~budget ?profile:prt cons in
      try
        let rendered =
          Span.wrap metrics "eval" (fun () ->
              let v = Eval.run ?entry st c.core in
              Inject.hit Inject.Render;
              Eval.render st v)
        in
        finish ~meter:st.Eval.budget ~rendered ~counters:(Eval.counters st)
      with Stack_overflow ->
        (* the native stack is the tree backend's frame resource; report
           its exhaustion like any configured frame bound *)
        Budget.exhausted Budget.Frames ~spent:0 ~limit:0)
  | `Vm ->
      let prog =
        Span.wrap metrics "lower" (fun () ->
            Tc_vm.Compile.program ~mode ~cons c.core)
      in
      let st = Tc_vm.Vm.create_state ~budget ?profile:prt cons in
      let rendered =
        Span.wrap metrics "eval" (fun () ->
            let v = Tc_vm.Vm.run ?entry st prog in
            Inject.hit Inject.Render;
            Tc_vm.Vm.render st v)
      in
      finish ~meter:(Tc_vm.Vm.meter st) ~rendered
        ~counters:(Tc_vm.Vm.counters st)

(** The qualified type of a standalone expression against a compiled
    program's environment (the REPL's [:type]). The expression is checked
    but not translated, so its context is reported as attached to its type
    variables rather than generalized. *)
let expression_type (c : compiled) (src : string) : string =
  Ident.with_scope (Ident.copy c.names) @@ fun () ->
  let e = Parser.parse_expression ~file:"<interactive>" src in
  let e = Fixity.expr c.fixities e in
  let k = Tc_desugar.Desugar.expr c.env e in
  let st = Infer.create_state ~opts:(infer_options c.options) c.env in
  Infer.push_scope st;
  let ty, _core = Infer.infer_expr st c.venv k in
  ignore (Infer.pop_scope st);
  Fmt.str "%a" Tc_types.Ty.pp_qualified ty

(** Apply an optimizer pipeline to a compiled program, reporting a
    per-pass [Opt_pass] event (program size and static dictionary-operation
    deltas) to the compile's trace sink. The [Specialise] pass runs under
    the policy in [options.specialise] — with a loaded profile remapped
    onto the program's site table, this is the profile-guided half of the
    profile → optimize loop — and its typed report lands in
    [spec_report], in an [opt/spec/*] metrics family, and in a
    [Spec_report] trace event. *)
let optimize (passes : Tc_opt.Opt.pass list) (c : compiled) : compiled =
  let tr = c.options.trace in
  let metrics = c.options.metrics in
  let names = Ident.copy c.names in
  Ident.with_scope names @@ fun () ->
  Span.wrap metrics "optimize" @@ fun () ->
  let spec_report = ref c.spec_report in
  (* the policy is rebuilt against the current core: profiled counts are
     remapped (descriptor-first, id fallback) onto the sites that survived
     the passes already applied *)
  let spec_policy core : Tc_opt.Specialise.policy =
    let s = c.options.specialise in
    {
      Tc_opt.Specialise.hot_counts =
        Option.map
          (fun sp -> Profile.counts_for sp (Profile.site_table core))
          s.spec_profile;
      hot_threshold = s.spec_threshold;
      max_clones = s.spec_max_clones;
      max_growth = s.spec_max_growth;
    }
  in
  let record_spec (r : Tc_opt.Specialise.report) =
    spec_report := Some r;
    let add name v = Metrics.add (Metrics.counter metrics ("opt/spec/" ^ name)) v in
    add "clones" r.Tc_opt.Specialise.sr_clones;
    add "call_sites" r.Tc_opt.Specialise.sr_call_sites;
    add "hot_binds" r.Tc_opt.Specialise.sr_hot_binds;
    add "cold_binds" r.Tc_opt.Specialise.sr_cold_binds;
    add "budget_skips" r.Tc_opt.Specialise.sr_budget_skips;
    add "sels_removed"
      (max 0
         (r.Tc_opt.Specialise.sr_sels_before
          - r.Tc_opt.Specialise.sr_sels_after));
    add "dicts_removed"
      (max 0
         (r.Tc_opt.Specialise.sr_dicts_before
          - r.Tc_opt.Specialise.sr_dicts_after));
    Trace.emit tr (fun () ->
        Trace.Spec_report
          {
            clones = r.Tc_opt.Specialise.sr_clones;
            call_sites = r.Tc_opt.Specialise.sr_call_sites;
            hot_binds = r.Tc_opt.Specialise.sr_hot_binds;
            cold_binds = r.Tc_opt.Specialise.sr_cold_binds;
            budget_skips = r.Tc_opt.Specialise.sr_budget_skips;
            size_before = r.Tc_opt.Specialise.sr_size_before;
            size_after = r.Tc_opt.Specialise.sr_size_after;
            profile_guided = r.Tc_opt.Specialise.sr_profile_guided;
          })
  in
  let run_pass pass core =
    Span.wrap metrics (Tc_opt.Opt.pass_name pass) (fun () ->
        match (pass : Tc_opt.Opt.pass) with
        | Tc_opt.Opt.Specialise ->
            let core', rep =
              Tc_opt.Opt.run_pass_report ~spec:(spec_policy core) pass core
            in
            Option.iter record_spec rep;
            core'
        | _ -> Tc_opt.Opt.run_pass pass core)
  in
  let core =
    List.fold_left
      (fun core pass ->
        Inject.hit ~detail:(Tc_opt.Opt.pass_name pass) Inject.Optimize;
        if Trace.is_on tr then begin
          let size_before = Core.program_size core in
          let sels_before, dicts_before = Core.static_dict_ops core in
          let core' = run_pass pass core in
          Trace.emit tr (fun () ->
              let size_after = Core.program_size core' in
              let sels_after, dicts_after = Core.static_dict_ops core' in
              Trace.Opt_pass
                { pass = Tc_opt.Opt.pass_name pass; size_before; size_after;
                  sels_before; sels_after; dicts_before; dicts_after });
          core'
        end
        else run_pass pass core)
      c.core passes
  in
  Lint.check_program ~primitives:Prims.names core;
  { c with core; spec_report = !spec_report; names }

let ident (c : compiled) (name : string) : Ident.t =
  Ident.with_scope (Ident.copy c.names) (fun () -> Ident.intern name)
