(** Type inference with integrated dictionary conversion (paper §5–§6).

    The checker walks the kernel program once, producing a core translation
    as it goes. Occurrences of overloaded variables and methods become
    {e placeholders} ([Core.Hole] nodes, recorded in the innermost pending
    scope). When a binding group is generalized:

    - dictionary parameters are invented for the context of each
      generalized type variable (§6.2);
    - every pending placeholder is resolved by the paper's four cases
      (§6.3): dictionary-parameter lookup, instance lookup, deferral to the
      enclosing declaration, or ambiguity (handled by numeric defaulting
      when possible);
    - recursive-call placeholders are rewritten into calls passing the
      dictionaries through unchanged.

    Also implemented here: the letrec common context (§8.3), user-supplied
    signatures via read-only variables fixing dictionary order (§8.6), the
    monomorphism restriction (§8.7), and overloaded integer literals with
    Haskell-style defaulting. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Ty = Tc_types.Ty
module Scheme = Tc_types.Scheme
module Class_env = Tc_types.Class_env
module Unify = Tc_types.Unify
module Elaborate = Tc_types.Elaborate
module Stats = Tc_types.Stats
module Tycon = Tc_types.Tycon
module Kernel = Tc_desugar.Kernel
module Core = Tc_core_ir.Core
module Layout = Tc_dicts.Layout
module Access = Tc_dicts.Access
module Trace = Tc_obs.Trace

let err = Diagnostic.errorf

(* ------------------------------------------------------------------ *)
(* Options and state.                                                  *)
(* ------------------------------------------------------------------ *)

type options = {
  strategy : Layout.strategy;
  overloaded_literals : bool;  (* integer literals via fromInt (Num a => a) *)
  defaulting : bool;           (* resolve ambiguous numeric contexts *)
}

let default_options =
  { strategy = Layout.Nested; overloaded_literals = true; defaulting = true }

(** Value-environment entries. *)
type entry =
  | Mono of Ty.t           (* lambda / case binders *)
  | Poly of Scheme.t       (* generalized bindings *)
  | Recursive of Ty.t      (* members of the group currently being checked *)

type venv = entry Ident.Map.t

type ph_kind =
  | PhDict of Ident.t                   (* a dictionary for this class *)
  | PhMethod of Class_env.method_info   (* a method occurrence *)
  | PhRec of Ident.t                    (* a recursive-call occurrence *)

type ph = {
  ph_hole : Core.hole;
  ph_kind : ph_kind;
  ph_ty : Ty.t;
  ph_loc : Loc.t;
}

type state = {
  env : Class_env.t;
  opts : options;
  sink : Diagnostic.Sink.sink;
  mutable level : int;
  mutable scopes : ph list ref list;  (* innermost first *)
}

let create_state ?(opts = default_options) env =
  { env; opts; sink = env.Class_env.sink; level = 0; scopes = [] }

(** The trace sink events go to (owned by the class environment so that
    unification can reach it too). *)
let trace st = st.env.Class_env.trace

let kind_label = function
  | PhDict c -> "dict " ^ Ident.text c
  | PhMethod (mi : Class_env.method_info) -> "method " ^ Ident.text mi.mi_name
  | PhRec x -> "recursive " ^ Ident.text x

let push_scope st = st.scopes <- ref [] :: st.scopes

(** The unresolved placeholders of a popped scope. *)
type pending = ph list

let pop_scope st : pending =
  match st.scopes with
  | s :: rest ->
      st.scopes <- rest;
      List.rev !s
  | [] -> invalid_arg "Infer.pop_scope: no scope"

let new_hole st kind ty loc : ph * Core.expr =
  (Stats.current ()).holes_created <- (Stats.current ()).holes_created + 1;
  let hole = Core.fresh_hole () in
  let ph = { ph_hole = hole; ph_kind = kind; ph_ty = ty; ph_loc = loc } in
  (match st.scopes with
   | s :: _ -> s := ph :: !s
   | [] -> invalid_arg "Infer.new_hole: no scope");
  Trace.emit (trace st) (fun () ->
      Trace.Placeholder_created
        { id = hole.Core.hole_id; kind = kind_label kind;
          ty = Fmt.str "%a" Ty.pp_qualified ty; loc });
  (ph, Core.Hole hole)

(* ------------------------------------------------------------------ *)
(* Occurrences.                                                        *)
(* ------------------------------------------------------------------ *)

(** An occurrence of a generalized variable: instantiate and apply to one
    dictionary placeholder per context element, in scheme order (§6.1). *)
let poly_occurrence st ~loc x (scheme : Scheme.t) : Ty.t * Core.expr =
  let ty, fresh = Scheme.instantiate ~level:st.level scheme in
  let holes =
    List.concat
      (List.map2
         (fun (gv : Ty.tyvar) (fv : Ty.tyvar) ->
           List.map
             (fun c ->
               let _, h = new_hole st (PhDict c) (Ty.TVar fv) loc in
               h)
             (Ty.unbound_exn gv).context)
         scheme.vars fresh)
  in
  (ty, Core.apps (Core.Var x) holes)

(** An occurrence of a class method: a method placeholder for the class
    variable, applied to dictionary placeholders for any extra context in
    the method's signature (§8.5). *)
let method_occurrence st ~loc (mi : Class_env.method_info) : Ty.t * Core.expr =
  let ci = Class_env.class_exn st.env mi.mi_class in
  let scope = Elaborate.new_scope () in
  let class_tv =
    Ty.fresh_var ~context:(Ty.Context.singleton mi.mi_class) ~level:st.level ()
  in
  Hashtbl.add scope ci.ci_var class_tv;
  let ty =
    Elaborate.elaborate st.env scope ~level:st.level ~read_only:false
      mi.mi_sig.sq_ty
  in
  Elaborate.apply_context st.env scope ~level:st.level ~read_only:false
    mi.mi_sig.sq_context;
  let _, mh = new_hole st (PhMethod mi) (Ty.TVar class_tv) loc in
  let extra =
    List.map
      (fun (p : Ast.spred) ->
        match p.sp_ty with
        | Ast.TSVar v ->
            let tv = Elaborate.lookup_var scope ~level:st.level ~read_only:false v in
            let _, h = new_hole st (PhDict p.sp_class) (Ty.TVar tv) loc in
            h
        | _ -> err ~loc:p.sp_loc "method context must constrain type variables")
      mi.mi_sig.sq_context
  in
  (ty, Core.apps mh extra)

let con_occurrence st ~loc c : Ty.t * Core.expr =
  match Class_env.find_datacon st.env c with
  | Some info ->
      let ty, _ = Scheme.instantiate ~level:st.level info.con_scheme in
      (ty, Core.Con c)
  | None -> err ~loc "unknown data constructor '%a'" Ident.pp c

let bool_ty st = Prims.bool_ty st.env

(** One dictionary parameter of a binding: (type variable, class, name). *)
type param_env = (Ty.tyvar * Ident.t * Ident.t) list

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

let rec infer_expr st (venv : venv) (e : Kernel.expr) : Ty.t * Core.expr =
  match e with
  | Kernel.KVar (x, loc) -> (
      match Ident.Map.find_opt x venv with
      | Some (Mono ty) -> (ty, Core.Var x)
      | Some (Poly scheme) -> poly_occurrence st ~loc x scheme
      | Some (Recursive ty) ->
          (* paper §6.1: recursive references become placeholders until the
             group's context is known *)
          let _, h = new_hole st (PhRec x) ty loc in
          (ty, h)
      | None -> (
          match Class_env.find_method st.env x with
          | Some mi -> method_occurrence st ~loc mi
          | None -> err ~loc "variable '%a' is not in scope" Ident.pp x))
  | Kernel.KCon (c, loc) -> con_occurrence st ~loc c
  | Kernel.KLit (Ast.LInt n, loc) when st.opts.overloaded_literals -> (
      (* an integer literal denotes [fromInt n] at type [Num a => a] *)
      match Class_env.find_method st.env (Ident.intern "fromInt") with
      | Some mi ->
          let tm, cm = method_occurrence st ~loc mi in
          let result = Ty.fresh ~level:st.level () in
          Unify.unify st.env ~loc tm (Ty.arrow Ty.int result);
          (result, Core.App (cm, Core.Lit (Ast.LInt n)))
      | None -> (Ty.int, Core.Lit (Ast.LInt n)))
  | Kernel.KLit (l, _) ->
      let ty =
        match l with
        | Ast.LInt _ -> Ty.int
        | Ast.LFloat _ -> Ty.float
        | Ast.LChar _ -> Ty.char
        | Ast.LString _ ->
            invalid_arg "Infer: string literals must be desugared"
      in
      (ty, Core.Lit l)
  | Kernel.KApp (f, a) ->
      let tf, cf = infer_expr st venv f in
      let ta, ca = infer_expr st venv a in
      let result = Ty.fresh ~level:st.level () in
      Unify.unify st.env ~loc:(Kernel.loc_of f) tf (Ty.arrow ta result);
      (result, Core.App (cf, ca))
  | Kernel.KLam (vs, body) ->
      let arg_tys = List.map (fun _ -> Ty.fresh ~level:st.level ()) vs in
      let venv' =
        List.fold_left2
          (fun m v t -> Ident.Map.add v (Mono t) m)
          venv vs arg_tys
      in
      let tb, cb = infer_expr st venv' body in
      (Ty.arrows arg_tys tb, Core.lam vs cb)
  | Kernel.KLet (g, body) ->
      let venv', cg = infer_group st venv g in
      let tb, cb = infer_expr st venv' body in
      (tb, Core.Let (cg, cb))
  | Kernel.KIf (c, t, f) ->
      let tc, cc = infer_expr st venv c in
      Unify.unify st.env ~loc:(Kernel.loc_of c) tc (bool_ty st);
      let tt, ct = infer_expr st venv t in
      let tf, cf = infer_expr st venv f in
      Unify.unify st.env ~loc:(Kernel.loc_of f) tt tf;
      (tt, Core.If (cc, ct, cf))
  | Kernel.KCase (scrut, alts, default) ->
      let ts, cs = infer_expr st venv scrut in
      let result = Ty.fresh ~level:st.level () in
      let alts' =
        List.map
          (fun (a : Kernel.alt) ->
            match a.ka_test with
            | Kernel.KTcon c ->
                let info =
                  match Class_env.find_datacon st.env c with
                  | Some info -> info
                  | None ->
                      err ~loc:(Kernel.loc_of scrut)
                        "unknown data constructor '%a'" Ident.pp c
                in
                let con_ty, _ = Scheme.instantiate ~level:st.level info.con_scheme in
                let rec peel n ty args =
                  if n = 0 then (List.rev args, ty)
                  else
                    match Ty.prune ty with
                    | Ty.TCon (tc, [ a'; b ]) when Tycon.is_arrow tc ->
                        peel (n - 1) b (a' :: args)
                    | _ -> assert false
                in
                let field_tys, res_ty = peel info.con_arity con_ty [] in
                Unify.unify st.env ~loc:(Kernel.loc_of scrut) ts res_ty;
                let venv' =
                  List.fold_left2
                    (fun m v t -> Ident.Map.add v (Mono t) m)
                    venv a.ka_vars field_tys
                in
                let tb, cb = infer_expr st venv' a.ka_body in
                Unify.unify st.env ~loc:(Kernel.loc_of a.ka_body) tb result;
                { Core.alt_con = Core.Tcon c; alt_vars = a.ka_vars; alt_body = cb }
            | Kernel.KTlit l ->
                let lit_ty =
                  match l with
                  | Ast.LInt _ -> Ty.int
                  | Ast.LFloat _ -> Ty.float
                  | Ast.LChar _ -> Ty.char
                  | Ast.LString _ -> assert false
                in
                Unify.unify st.env ~loc:(Kernel.loc_of scrut) ts lit_ty;
                let tb, cb = infer_expr st venv a.ka_body in
                Unify.unify st.env ~loc:(Kernel.loc_of a.ka_body) tb result;
                { Core.alt_con = Core.Tlit l; alt_vars = []; alt_body = cb })
          alts
      in
      let default' =
        Option.map
          (fun d ->
            let td, cd = infer_expr st venv d in
            Unify.unify st.env ~loc:(Kernel.loc_of d) td result;
            cd)
          default
      in
      (result, Core.Case (cs, alts', default'))
  | Kernel.KAnnot (e1, q, loc) ->
      let t, c = infer_expr st venv e1 in
      let sig_ty, _ = Elaborate.signature st.env ~level:st.level q in
      Unify.unify st.env ~loc t sig_ty;
      (sig_ty, c)
  | Kernel.KFail (msg, _) ->
      let a = Ty.fresh ~level:st.level () in
      ( a,
        Core.App (Core.Var Prims.p_failure, Core.Lit (Ast.LString msg)) )

(* ------------------------------------------------------------------ *)
(* Binding groups: generalization and placeholder resolution.          *)
(* ------------------------------------------------------------------ *)

(** Resolve a dictionary requirement [(cls, ty)] into a core expression.
    Implements the four cases of §6.3 for class placeholders. *)
and resolve_dict st (penv : param_env) ~loc (cls : Ident.t) (ty : Ty.t) :
    Core.expr =
  match Ty.prune ty with
  | Ty.TVar v when Ty.is_generic v -> (
      (* case 1: a variable generalized here — use a dictionary parameter *)
      match
        List.find_opt
          (fun (v', c', _) -> v'.Ty.tv_id = v.Ty.tv_id && Class_env.implies st.env c' cls)
          penv
      with
      | Some (_, c', p) ->
          Access.super_dict st.env st.opts.strategy ~loc ~have:c' ~target:cls
            (Core.Var p)
      | None ->
          err ~loc
            "internal: no dictionary parameter supplies '%a' for a \
             generalized type variable"
            Ident.pp cls)
  | Ty.TVar v ->
      let u = Ty.unbound_exn v in
      if u.level <= st.level then begin
        (* case 3: the variable is bound in an outer declaration — defer *)
        let ph, h = new_hole_deferred st (PhDict cls) (Ty.TVar v) loc in
        ignore ph;
        h
      end
      else begin
        (* case 4: ambiguous — try defaulting, else report *)
        if try_default st ~loc v then resolve_dict st penv ~loc cls ty
        else
          err ~loc
            "ambiguous overloading: cannot determine a type satisfying the \
             context '%a'"
            Ty.pp_qualified (Ty.TVar v)
      end
  | Ty.TCon (tc, args) -> (
      (* case 2: instantiated to a constructor — use the instance dictionary,
         recursively resolving the instance's own context *)
      let found = Class_env.find_instance st.env ~cls ~tycon:tc.Tycon.name in
      Trace.emit (trace st) (fun () ->
          Trace.Instance_lookup
            { cls; tycon = tc.Tycon.name; found = found <> None; loc });
      match found with
      | None ->
          err ~loc "no instance for '%a %a'" Ident.pp cls (Ty.pp_with 2)
            (Ty.TCon (tc, args))
      | Some inst ->
          let sub =
            List.concat
              (List.mapi
                 (fun i arg ->
                   List.map
                     (fun c -> resolve_dict st penv ~loc c arg)
                     inst.in_context.(i))
                 args)
          in
          Core.apps (Core.Var inst.in_dict) sub)

(** Like {!new_hole}, but for deferral: attach to the {e enclosing} scope
    (the innermost scope on the stack at resolution time). At the very top
    level there is nowhere to defer to, so attempt defaulting directly. *)
and new_hole_deferred st kind ty loc : ph * Core.expr =
  match st.scopes with
  | _ :: _ -> new_hole st kind ty loc
  | [] ->
      (match Ty.prune ty with
       | Ty.TVar v when not (Ty.is_generic v) ->
           if not (try_default st ~loc v) then
             err ~loc "ambiguous overloading at the top level: %a"
               Ty.pp_qualified ty
       | _ -> ());
      let hole = Core.fresh_hole () in
      let ph = { ph_hole = hole; ph_kind = kind; ph_ty = ty; ph_loc = loc } in
      resolve_ph st [] ph;
      (ph, Core.Hole hole)

(** Numeric defaulting: if the variable's context is rooted in [Num], try
    [Int] then [Float]. Returns [true] when the variable was instantiated. *)
and try_default st ~loc (v : Ty.tyvar) : bool =
  st.opts.defaulting
  &&
  match v.Ty.tv_repr with
  | Ty.Link _ -> false
  | Ty.Unbound u ->
      let num = Ident.intern "Num" in
      let numeric =
        Class_env.find_class st.env num <> None
        && List.exists (fun c -> Class_env.implies st.env c num) u.context
      in
      numeric
      &&
      let tr = trace st in
      (* render the qualified variable before trial unification links it *)
      let rendered =
        if Trace.is_on tr then Fmt.str "%a" Ty.pp_qualified (Ty.TVar v) else ""
      in
      let chosen =
        List.find_opt
          (fun candidate ->
            (* trial unification: instantiation links the variable before
               context propagation can fail, so restore its representation
               when a candidate is rejected *)
            let saved = v.Ty.tv_repr in
            try
              Unify.unify st.env ~loc (Ty.TVar v) candidate;
              true
            with Diagnostic.Error _ ->
              v.Ty.tv_repr <- saved;
              false)
          [ Ty.int; Ty.float ]
      in
      Trace.emit tr (fun () ->
          Trace.Defaulting
            { ty = rendered; chosen = Option.map (Fmt.str "%a" Ty.pp) chosen;
              loc });
      chosen <> None

(** Resolve one placeholder (§6.3). *)
and resolve_ph st (penv : param_env) (ph : ph) : unit =
  if ph.ph_hole.hole_fill = None then begin
    (Stats.current ()).holes_resolved <- (Stats.current ()).holes_resolved + 1;
    (* [why] is only forced when a trace sink is attached *)
    let fill ~why e =
      Trace.emit (trace st) (fun () ->
          let via, detail = why () in
          Trace.Placeholder_resolved
            { id = ph.ph_hole.Core.hole_id; via; detail; loc = ph.ph_loc });
      ph.ph_hole.hole_fill <- Some e
    in
    match ph.ph_kind with
    | PhDict cls ->
        let e = resolve_dict st penv ~loc:ph.ph_loc cls ph.ph_ty in
        (* classify after resolution: case 4 defaulting may have just fixed
           the type to a constructor *)
        let why () =
          match Ty.prune ph.ph_ty with
          | Ty.TVar v when Ty.is_generic v ->
              ("dict-parameter", Ident.text cls)
          | Ty.TVar _ -> ("deferred", Ident.text cls)
          | Ty.TCon (tc, _) ->
              ("instance", Ident.text cls ^ " " ^ Ident.text tc.Tycon.name)
        in
        fill ~why e
    | PhMethod mi -> (
        let loc = ph.ph_loc in
        match Ty.prune ph.ph_ty with
        | Ty.TVar v when Ty.is_generic v -> (
            match
              List.find_opt
                (fun (v', c', _) ->
                  v'.Ty.tv_id = v.Ty.tv_id
                  && Class_env.implies st.env c' mi.mi_class)
                penv
            with
            | Some (_, c', p) ->
                fill
                  ~why:(fun () -> ("dict-parameter", Ident.text c'))
                  (Access.method_access st.env st.opts.strategy ~loc ~have:c'
                     ~cls:mi.mi_class ~meth:mi.mi_name (Core.Var p))
            | None ->
                err ~loc
                  "internal: no dictionary parameter supplies method '%a'"
                  Ident.pp mi.mi_name)
        | Ty.TVar v ->
            let u = Ty.unbound_exn v in
            if u.level <= st.level then begin
              let ph', h = new_hole_deferred st ph.ph_kind ph.ph_ty loc in
              ignore ph';
              fill ~why:(fun () -> ("deferred", Ident.text mi.mi_name)) h
            end
            else if try_default st ~loc v then resolve_ph_again st penv ph
            else
              err ~loc
                "ambiguous overloading: cannot choose an instance for method \
                 '%a' at type %a"
                Ident.pp mi.mi_name Ty.pp_qualified (Ty.TVar v)
        | Ty.TCon (tc, args) -> (
            let found =
              Class_env.find_instance st.env ~cls:mi.mi_class
                ~tycon:tc.Tycon.name
            in
            Trace.emit (trace st) (fun () ->
                Trace.Instance_lookup
                  { cls = mi.mi_class; tycon = tc.Tycon.name;
                    found = found <> None; loc });
            match found with
            | None ->
                err ~loc "no instance for '%a %a'" Ident.pp mi.mi_class
                  (Ty.pp_with 2)
                  (Ty.TCon (tc, args))
            | Some inst -> (
                match List.assoc_opt mi.mi_name inst.in_impls with
                | Some (Class_env.User_impl impl) ->
                    (* direct call to the instance function: when the type is
                       known the dictionary is bypassed entirely (§4) *)
                    let sub =
                      List.concat
                        (List.mapi
                           (fun i arg ->
                             List.map
                               (fun c -> resolve_dict st penv ~loc c arg)
                               inst.in_context.(i))
                           args)
                    in
                    fill
                      ~why:(fun () -> ("direct-call", Ident.text impl))
                      (Core.apps (Core.Var impl) sub)
                | Some Class_env.Default_impl ->
                    let dict =
                      resolve_dict st penv ~loc mi.mi_class ph.ph_ty
                    in
                    fill
                      ~why:(fun () ->
                        ( "default-method",
                          Ident.text mi.mi_class ^ "." ^ Ident.text mi.mi_name ))
                      (Core.App
                         ( Core.Var
                             (Class_env.default_name ~cls:mi.mi_class
                                ~meth:mi.mi_name),
                           dict ))
                | None ->
                    err ~loc "instance '%a %a' has no method '%a'" Ident.pp
                      mi.mi_class Ident.pp tc.Tycon.name Ident.pp mi.mi_name)))
    | PhRec _ ->
        (* handled in [infer_group]; anything left here leaked *)
        err ~loc:ph.ph_loc
          "internal: unresolved recursive-call placeholder"
  end

and resolve_ph_again st penv ph =
  (Stats.current ()).holes_resolved <- (Stats.current ()).holes_resolved - 1;
  resolve_ph st penv ph

(* ------------------------------------------------------------------ *)

and infer_group st (venv : venv) (g : Kernel.group) : venv * Core.bind_group =
  let binds = Kernel.binds_of_group g in
  let is_rec = match g with Kernel.KRec _ -> true | Kernel.KNonrec _ -> false in
  st.level <- st.level + 1;
  (* assumed types; signatures give read-only variables in declared order *)
  let assumed =
    List.map
      (fun (b : Kernel.bind) ->
        match b.kb_sig with
        | Some q ->
            let ty, sig_vars = Elaborate.signature st.env ~level:st.level q in
            (b, ty, Some sig_vars)
        | None -> (b, Ty.fresh ~level:st.level (), None))
      binds
  in
  let venv_rec =
    if is_rec then
      List.fold_left
        (fun m (b, ty, _) -> Ident.Map.add b.Kernel.kb_name (Recursive ty) m)
        venv assumed
    else venv
  in
  (* infer each body against its assumed type, collecting placeholders *)
  let inferred =
    List.map
      (fun ((b : Kernel.bind), ty, sig_vars) ->
        push_scope st;
        let t, core = infer_expr st venv_rec b.kb_expr in
        Unify.unify st.env ~loc:b.kb_loc t ty;
        let pending = pop_scope st in
        (b, ty, sig_vars, core, pending))
      assumed
  in
  st.level <- st.level - 1;
  (* ---- generalization (§6.2) ---- *)
  let restricted =
    List.exists (fun (b : Kernel.bind) -> b.kb_restricted) binds
  in
  (* candidate variables: free in some binding's type, born at the inner
     level *)
  let candidates : Ty.tyvar list =
    let seen = Hashtbl.create 16 in
    List.concat_map
      (fun (_, ty, _, _, _) ->
        List.filter
          (fun (tv : Ty.tyvar) ->
            match tv.tv_repr with
            | Ty.Unbound u ->
                u.level > st.level
                && u.level <> Ty.generic_level
                &&
                if Hashtbl.mem seen tv.tv_id then false
                else begin
                  Hashtbl.add seen tv.tv_id ();
                  true
                end
            | Ty.Link _ -> false)
          (Ty.free_vars ty))
      inferred
  in
  let sig_var_ids =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (_, _, sig_vars, _, _) ->
        match sig_vars with
        | Some vs -> List.iter (fun (v : Ty.tyvar) -> Hashtbl.add tbl v.tv_id ()) vs
        | None -> ())
      inferred;
    tbl
  in
  let has_context (tv : Ty.tyvar) = (Ty.unbound_exn tv).context <> [] in
  (* monomorphism restriction (§8.7): constrained variables of a restricted
     group are not generalized; they stay in the enclosing level *)
  let generalized, demoted =
    List.partition
      (fun tv ->
        (not restricted) || (not (has_context tv)) || Hashtbl.mem sig_var_ids tv.Ty.tv_id)
      candidates
  in
  List.iter
    (fun (tv : Ty.tyvar) -> (Ty.unbound_exn tv).level <- Ty.generic_level)
    generalized;
  List.iter
    (fun (tv : Ty.tyvar) -> (Ty.unbound_exn tv).level <- st.level)
    demoted;
  (* the group's common context (§8.3): every constrained generalized
     variable, shared by all unsigned members; kept in order of first
     appearance in the group's types, which fixes dictionary order *)
  let ctx_vars = List.filter (fun tv -> has_context tv) generalized in
  (* per-binding schemes *)
  let with_schemes =
    List.map
      (fun ((b : Kernel.bind), ty, sig_vars, core, pending) ->
        let scheme =
          match sig_vars with
          | Some vs -> { Scheme.vars = vs; ty }
          | None ->
              let own =
                List.filter
                  (fun (tv : Ty.tyvar) -> Ty.is_generic tv)
                  (Ty.free_vars ty)
              in
              let in_own (tv : Ty.tyvar) =
                List.exists (fun (o : Ty.tyvar) -> o.tv_id = tv.tv_id) own
              in
              let extra_ctx =
                List.filter (fun tv -> not (in_own tv)) ctx_vars
              in
              if (not restricted) && extra_ctx <> [] then
                Diagnostic.Sink.warn st.sink ~loc:b.kb_loc
                  "'%a' shares the overloading context of its recursive group \
                   but its own type does not determine it; it can only be \
                   called from within the group"
                  Ident.pp b.kb_name;
              let in_ctx (tv : Ty.tyvar) =
                List.exists (fun (o : Ty.tyvar) -> o.tv_id = tv.tv_id) ctx_vars
              in
              let vars =
                if restricted then own
                else ctx_vars @ List.filter (fun tv -> not (in_ctx tv)) own
              in
              { Scheme.vars = vars; ty }
        in
        (b, scheme, core, pending))
      inferred
  in
  (* dictionary parameters + parameter environments (§6.2) *)
  let finished =
    List.map
      (fun ((b : Kernel.bind), (scheme : Scheme.t), core, pending) ->
        let penv : param_env =
          List.concat_map
            (fun (tv : Ty.tyvar) ->
              List.map
                (* the "d$" prefix marks dictionary parameters; the
                   optimizer relies on it to recognize them *)
                (fun c -> (tv, c, Ident.gensym ("d$" ^ Ident.text c)))
                (Ty.unbound_exn tv).context)
            scheme.vars
        in
        (b, scheme, core, pending, penv))
      with_schemes
  in
  let group_schemes =
    List.map (fun (b, s, _, _, _) -> (b.Kernel.kb_name, s)) finished
  in
  (* resolve placeholders (§6.3) *)
  List.iter
    (fun ((_ : Kernel.bind), _, _, pending, penv) ->
      List.iter
        (fun ph ->
          match ph.ph_kind with
          | PhRec x -> (
              match List.assoc_opt x group_schemes with
              | Some (xs : Scheme.t) ->
                  if ph.ph_hole.hole_fill = None then begin
                    (Stats.current ()).holes_resolved <-
                      (Stats.current ()).holes_resolved + 1;
                    let dicts =
                      List.concat_map
                        (fun (tv : Ty.tyvar) ->
                          List.map
                            (fun c ->
                              resolve_dict st penv ~loc:ph.ph_loc c (Ty.TVar tv))
                            (Ty.unbound_exn tv).context)
                        xs.vars
                    in
                    Trace.emit (trace st) (fun () ->
                        Trace.Placeholder_resolved
                          { id = ph.ph_hole.Core.hole_id;
                            via = "recursive-call"; detail = Ident.text x;
                            loc = ph.ph_loc });
                    ph.ph_hole.hole_fill <- Some (Core.apps (Core.Var x) dicts)
                  end
              | None ->
                  (* recursive reference to an outer group: defer *)
                  let _, h = new_hole_deferred st ph.ph_kind ph.ph_ty ph.ph_loc in
                  Trace.emit (trace st) (fun () ->
                      Trace.Placeholder_resolved
                        { id = ph.ph_hole.Core.hole_id; via = "deferred";
                          detail = Ident.text x; loc = ph.ph_loc });
                  ph.ph_hole.hole_fill <- Some h)
          | PhDict _ | PhMethod _ -> resolve_ph st penv ph)
        pending)
    finished;
  (* assemble *)
  let core_binds =
    List.map
      (fun ((b : Kernel.bind), _, core, _, penv) ->
        let params = List.map (fun (_, _, p) -> p) penv in
        { Core.b_name = b.kb_name; b_expr = Core.lam params core })
      finished
  in
  let venv' =
    List.fold_left
      (fun m (name, s) -> Ident.Map.add name (Poly s) m)
      venv group_schemes
  in
  let group =
    match core_binds with
    | [ cb ] when not is_rec -> Core.Nonrec cb
    | _ -> Core.Rec core_binds
  in
  (venv', group)

(* ------------------------------------------------------------------ *)
(* Checking a binding against an externally-supplied signature.        *)
(* Used for instance method implementations and default methods.       *)
(* ------------------------------------------------------------------ *)

(** [check_signature_binding st venv ~name ~q expr] type checks [expr]
    against the qualified type [q] and returns the core binding (with
    dictionary parameters in the order of [q]'s context) and its scheme. *)
and check_signature_binding st (venv : venv) ~(name : Ident.t)
    ~(q : Ast.sqtyp) ~loc (expr : Kernel.expr) : Core.bind * Scheme.t =
  let kb : Kernel.bind =
    { kb_name = name; kb_expr = expr; kb_sig = Some q; kb_restricted = false;
      kb_loc = loc }
  in
  let venv', g = infer_group st venv (Kernel.KNonrec kb) in
  ignore venv';
  match g with
  | Core.Nonrec b | Core.Rec [ b ] ->
      let scheme =
        match Ident.Map.find_opt name venv' with
        | Some (Poly s) -> s
        | _ -> assert false
      in
      (b, scheme)
  | Core.Rec _ -> assert false

(* ------------------------------------------------------------------ *)
(* Top-level driving helpers.                                          *)
(* ------------------------------------------------------------------ *)

(** Resolve everything deferred to the top level (restricted bindings,
    ambiguous literals, ...), applying defaulting. Call once after the whole
    program has been checked. *)
let final_resolve st =
  let pending = pop_scope st in
  let resolve1 ph =
    match ph.ph_kind with
    | PhRec _ ->
        err ~loc:ph.ph_loc "internal: recursive placeholder escaped its group"
    | _ -> (
        (* force defaulting for still-unbound variables *)
        (match Ty.prune ph.ph_ty with
         | Ty.TVar v when not (Ty.is_generic v) ->
             if not (try_default st ~loc:ph.ph_loc v) then
               err ~loc:ph.ph_loc
                 "ambiguous overloading at the top level: %a" Ty.pp_qualified
                 (Ty.TVar v)
         | _ -> ());
        resolve_ph st [] ph)
  in
  List.iter
    (fun ph ->
      (* each unresolved placeholder (ambiguity, missing instance) is an
         independent diagnostic; the erroneous core is discarded anyway *)
      Diagnostic.guard ~sink:st.sink ~stage:"placeholder resolution"
        ~loc:ph.ph_loc
        ~recover:(fun () -> ())
        (fun () -> resolve1 ph))
    pending

(* ------------------------------------------------------------------ *)
(* Fault isolation.                                                    *)
(* ------------------------------------------------------------------ *)

(** The scheme assigned to binders of a failed binding group:
    [forall a. a]. It instantiates to a fresh unconstrained variable at
    every occurrence, so it unifies with anything, generates no
    dictionary placeholders, and never causes a second report. *)
let error_scheme () : Scheme.t =
  let v = Ty.fresh_var ~level:Ty.generic_level () in
  { Scheme.vars = [ v ]; ty = Ty.TVar v }

(** [protect st ~stage ~loc ~recover f] is {!Diagnostic.guard}
    specialized to checker state: on failure the current level and the
    placeholder-scope stack are restored (scopes opened by [f] are
    dropped; placeholders [f] added to surviving scopes — including
    deferrals into enclosing scopes — are removed, since they belong to
    the discarded translation). A raising sink never recovers, so [f]
    just runs, with no snapshot taken. *)
let protect st ~stage ~loc ~(recover : unit -> 'a) (f : unit -> 'a) : 'a =
  if Diagnostic.Sink.raises st.sink then f ()
  else
    let level = st.level in
    let scopes = st.scopes in
    let lens = List.map (fun r -> List.length !r) scopes in
    let rollback () =
      st.level <- level;
      st.scopes <- scopes;
      (* placeholders are prepended, so drop the newest from each scope *)
      List.iter2
        (fun r n ->
          let rec drop k xs =
            if k <= 0 then xs
            else match xs with [] -> [] | _ :: t -> drop (k - 1) t
          in
          let extra = List.length !r - n in
          if extra > 0 then r := drop extra !r)
        scopes lens
    in
    Diagnostic.guard ~sink:st.sink ~stage ~loc
      ~recover:(fun () ->
        rollback ();
        recover ())
      f
