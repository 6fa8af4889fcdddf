(** The run-time tag dispatch baseline (paper §3).

    "One standard technique used in the implementation of run-time
    overloading is to attach some kind of tag to the concrete
    representation of each object. Overloaded functions such as the
    equality operator … can be implemented by inspecting the tags of their
    arguments and dispatching the appropriate function based on the tag
    value. This is essentially the method used to deal with the equality
    function in Standard ML of New Jersey."

    This translation compiles methods to {e dispatchers} that branch on the
    run-time type tag of a designated argument (via the [primTypeTag]
    primitive). It reproduces the approach's fundamental limitation: a
    method whose class variable does not appear (exactly) in an argument
    position — e.g. the paper's [read], our [parse] or [fromInt] — is
    rejected at compile time, because "it is not possible to implement
    functions where the overloading is defined by the returned type".

    Integer literals are monomorphic [Int] in this mode (as in ML), since
    overloaded literals are themselves return-type overloading. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Class_env = Tc_types.Class_env
module Kernel = Tc_desugar.Kernel
module Desugar = Tc_desugar.Desugar
module Core = Tc_core_ir.Core

let err = Diagnostic.errorf

let prim_type_tag = Ident.intern "primTypeTag"

(* ------------------------------------------------------------------ *)
(* Dispatch positions.                                                 *)
(* ------------------------------------------------------------------ *)

(** Argument positions of a method type (the arrow spine of its source
    signature). *)
let rec arg_positions (t : Ast.styp) : Ast.styp list =
  match t with
  | Ast.TSFun (a, b) -> a :: arg_positions b
  | _ -> []

let rec mentions_var v (t : Ast.styp) =
  match t with
  | Ast.TSVar v' -> Ident.equal v v'
  | Ast.TSCon _ -> false
  | Ast.TSApp (a, b) | Ast.TSFun (a, b) -> mentions_var v a || mentions_var v b
  | Ast.TSList a -> mentions_var v a
  | Ast.TSTuple ts -> List.exists (mentions_var v) ts

(** Where can a dispatcher find the type tag? [Exact i]: argument [i] has
    the class variable's type, so its own tag decides. Otherwise the
    variable is buried (or absent) and tag dispatch cannot implement the
    method. *)
type dispatch =
  | Exact of int
  | Buried of int   (* mentioned inside argument [i] but not projectable *)
  | Impossible      (* return-type overloading *)

let dispatch_of env (mi : Class_env.method_info) : dispatch =
  let ci = Class_env.class_exn env mi.mi_class in
  let args = arg_positions mi.mi_sig.sq_ty in
  let exact =
    List.find_index
      (fun t -> match t with Ast.TSVar v -> Ident.equal v ci.ci_var | _ -> false)
      args
  in
  match exact with
  | Some i -> Exact i
  | None -> (
      match List.find_index (mentions_var ci.ci_var) args with
      | Some i -> Buried i
      | None -> Impossible)

let check_dispatchable env ~loc (mi : Class_env.method_info) : int =
  match dispatch_of env mi with
  | Exact i -> i
  | Buried i ->
      err ~loc
        "method '%a' cannot be implemented by run-time tag dispatch: the \
         class variable is buried inside argument %d, so no tag is directly \
         available (consider the paper's dictionary translation instead)"
        Ident.pp mi.mi_name (i + 1)
  | Impossible ->
      err ~loc
        "method '%a' is overloaded only in its result type; run-time tag \
         dispatch cannot implement it (the paper's motivation for \
         dictionaries: 'it is not possible to implement functions where the \
         overloading is defined by the returned type')"
        Ident.pp mi.mi_name

(* ------------------------------------------------------------------ *)
(* Generated names.                                                    *)
(* ------------------------------------------------------------------ *)

let dyn_name ~cls ~meth =
  Ident.intern (Printf.sprintf "dyn$%s$%s" (Ident.text cls) (Ident.text meth))

let impl_name ~cls ~tycon ~meth =
  Ident.intern
    (Printf.sprintf "tag$%s$%s$%s" (Ident.text cls)
       (Class_env.tycon_label tycon) (Ident.text meth))

let default_name ~cls ~meth =
  Ident.intern (Printf.sprintf "tag$%s$default$%s" (Ident.text cls) (Ident.text meth))

(* ------------------------------------------------------------------ *)
(* Kernel → core translation with dispatching methods.                 *)
(* ------------------------------------------------------------------ *)

type state = {
  env : Class_env.t;
  mutable used_methods : Class_env.method_info Ident.Map.t;
  (* In lenient mode (library/prelude code), an undispatchable method
     occurrence becomes a run-time failure stub rather than a compile-time
     error, so that a prelude written for the dictionary strategy still
     loads; user code gets the hard error. *)
  mutable lenient : bool;
}

let rec translate st (scope : Ident.Set.t) (e : Kernel.expr) : Core.expr =
  match e with
  | Kernel.KVar (x, loc) -> (
      if Ident.Set.mem x scope then Core.Var x
      else
        match Class_env.find_method st.env x with
        | Some mi -> (
            match dispatch_of st.env mi with
            | Exact _ ->
                st.used_methods <- Ident.Map.add x mi st.used_methods;
                Core.Var (dyn_name ~cls:mi.mi_class ~meth:x)
            | Buried _ | Impossible when st.lenient ->
                Core.App
                  ( Core.Var (Ident.intern "primFailure"),
                    Core.Lit
                      (Ast.LString
                         (Printf.sprintf
                            "method %s requires return-type overloading, \
                             which run-time tag dispatch cannot implement"
                            (Ident.text x))) )
            | Buried _ | Impossible ->
                ignore (check_dispatchable st.env ~loc mi);
                assert false)
        | None -> Core.Var x)
  | Kernel.KCon (c, _) -> Core.Con c
  | Kernel.KLit (l, _) -> Core.Lit l
  | Kernel.KApp (f, a) -> Core.App (translate st scope f, translate st scope a)
  | Kernel.KLam (vs, b) ->
      Core.Lam (vs, translate st (List.fold_left (fun s v -> Ident.Set.add v s) scope vs) b)
  | Kernel.KLet (g, body) ->
      let binds = Kernel.binds_of_group g in
      let scope' =
        List.fold_left
          (fun s (b : Kernel.bind) -> Ident.Set.add b.kb_name s)
          scope binds
      in
      let rhs_scope = match g with Kernel.KNonrec _ -> scope | Kernel.KRec _ -> scope' in
      let cbinds =
        List.map
          (fun (b : Kernel.bind) ->
            { Core.b_name = b.kb_name; b_expr = translate st rhs_scope b.kb_expr })
          binds
      in
      let cg =
        match (g, cbinds) with
        | Kernel.KNonrec _, [ cb ] -> Core.Nonrec cb
        | _ -> Core.Rec cbinds
      in
      Core.Let (cg, translate st scope' body)
  | Kernel.KIf (c, t, f) ->
      Core.If (translate st scope c, translate st scope t, translate st scope f)
  | Kernel.KCase (s, alts, d) ->
      Core.Case
        ( translate st scope s,
          List.map
            (fun (a : Kernel.alt) ->
              let scope' =
                List.fold_left (fun s' v -> Ident.Set.add v s') scope a.ka_vars
              in
              {
                Core.alt_con =
                  (match a.ka_test with
                   | Kernel.KTcon c -> Core.Tcon c
                   | Kernel.KTlit l -> Core.Tlit l);
                alt_vars = a.ka_vars;
                alt_body = translate st scope' a.ka_body;
              })
            alts,
          Option.map (translate st scope) d )
  | Kernel.KAnnot (e1, _, _) -> translate st scope e1
  | Kernel.KFail (msg, _) ->
      Core.App (Core.Var (Ident.intern "primFailure"), Core.Lit (Ast.LString msg))

(* ------------------------------------------------------------------ *)
(* Dispatchers and implementations.                                    *)
(* ------------------------------------------------------------------ *)

(** The dispatcher for one method: inspect the tag of the dispatch
    argument and jump to the per-type implementation. *)
let dispatcher st (mi : Class_env.method_info) : Core.bind =
  let pos = check_dispatchable st.env ~loc:Loc.none mi in
  let params = List.init (pos + 1) (fun i -> Ident.gensym (Printf.sprintf "x%d" i)) in
  let disp_var = List.nth params pos in
  let instances =
    match Ident.Map.find_opt mi.mi_class st.env.Class_env.instances with
    | Some m -> Ident.Map.bindings m
    | None -> []
  in
  let apply_impl impl =
    Core.apps (Core.Var impl) (List.map (fun p -> Core.Var p) params)
  in
  let alts =
    List.map
      (fun (tycon, (inst : Class_env.inst_info)) ->
        let impl =
          match List.assoc_opt mi.mi_name inst.in_impls with
          | Some (Class_env.User_impl _) ->
              impl_name ~cls:mi.mi_class ~tycon ~meth:mi.mi_name
          | Some Class_env.Default_impl | None ->
              default_name ~cls:mi.mi_class ~meth:mi.mi_name
        in
        {
          Core.alt_con = Core.Tlit (Ast.LString (Ident.text tycon));
          alt_vars = [];
          alt_body = apply_impl impl;
        })
      instances
  in
  let failure =
    Core.App
      ( Core.Var (Ident.intern "primFailure"),
        Core.Lit
          (Ast.LString
             (Printf.sprintf "tag dispatch: no instance of %s"
                (Ident.text mi.mi_class))) )
  in
  let body =
    Core.Case
      ( Core.App (Core.Var prim_type_tag, Core.Var disp_var),
        alts,
        Some failure )
  in
  { Core.b_name = dyn_name ~cls:mi.mi_class ~meth:mi.mi_name;
    b_expr = Core.Lam (params, body) }

(** Per-instance method implementations (and class defaults), translated in
    tag mode themselves: their internal method uses re-dispatch at run
    time. *)
let impl_bindings st : Core.bind list =
  let instance_binds =
    List.concat_map
      (fun (inst : Class_env.inst_info) ->
        let bodies =
          let grouped = Ast.group_decls inst.in_body in
          List.filter_map
            (fun b ->
              match b with
              | Ast.BFun fb -> Some (fb.fb_name, fb)
              | Ast.BPat ({ p = Ast.PVar m; _ }, rhs, loc) ->
                  Some
                    ( m,
                      { Ast.fb_name = m;
                        fb_equations = [ { eq_pats = []; eq_rhs = rhs } ];
                        fb_loc = loc } )
              | Ast.BPat _ -> None)
            grouped.g_binds
        in
        List.filter_map
          (fun (m, impl) ->
            match impl with
            | Class_env.Default_impl -> None
            | Class_env.User_impl _ ->
                let fb = List.assoc m bodies in
                let kernel = Desugar.fun_bind_expr st.env fb in
                Some
                  {
                    Core.b_name =
                      impl_name ~cls:inst.in_class ~tycon:inst.in_tycon ~meth:m;
                    b_expr = translate st Ident.Set.empty kernel;
                  })
          inst.in_impls)
      (Class_env.all_instances st.env)
  in
  let default_binds =
    List.concat_map
      (fun (ci : Class_env.class_info) ->
        List.map
          (fun m ->
            match List.assoc_opt m ci.ci_defaults with
            | Some fb ->
                let kernel = Desugar.fun_bind_expr st.env fb in
                {
                  Core.b_name = default_name ~cls:ci.ci_name ~meth:m;
                  b_expr = translate st Ident.Set.empty kernel;
                }
            | None ->
                (* some instance may omit the method without a default:
                   calling it fails at run time *)
                {
                  Core.b_name = default_name ~cls:ci.ci_name ~meth:m;
                  b_expr =
                    Core.App
                      ( Core.Var (Ident.intern "primFailure"),
                        Core.Lit
                          (Ast.LString
                             (Printf.sprintf
                                "no definition for method %s" (Ident.text m)))
                      );
                })
          ci.ci_methods)
      (Class_env.all_classes st.env)
  in
  instance_binds @ default_binds

(* ------------------------------------------------------------------ *)
(* Whole programs.                                                     *)
(* ------------------------------------------------------------------ *)

(** Translate a desugared program under the tag-dispatch strategy. *)
let translate_program (env : Class_env.t) (groups : Kernel.group list) : Core.program =
  let st = { env; used_methods = Ident.Map.empty; lenient = true } in
  let user =
    List.map
      (fun g ->
        let binds = Kernel.binds_of_group g in
        let cbinds =
          List.map
            (fun (b : Kernel.bind) ->
              st.lenient <- b.kb_loc.Loc.file = "<prelude>";
              { Core.b_name = b.kb_name;
                b_expr = translate st Ident.Set.empty b.kb_expr })
            binds
        in
        match (g, cbinds) with
        | Kernel.KNonrec _, [ cb ] -> Core.Nonrec cb
        | _ -> Core.Rec cbinds)
      groups
  in
  st.lenient <- true;  (* instance and default bodies: library code *)
  let impls = impl_bindings st in
  (* dispatchers for every dispatchable method (undispatchable methods are
     rejected at their use sites; unused ones need no dispatcher) *)
  let dispatchers =
    Ident.Map.fold
      (fun _ mi acc ->
        match dispatch_of env mi with
        | Exact _ -> dispatcher st mi :: acc
        | Buried _ | Impossible -> acc)
      env.Class_env.methods []
  in
  let main_id = Ident.intern "main" in
  let has_main =
    List.exists
      (fun g ->
        List.exists
          (fun (b : Core.bind) -> Ident.equal b.b_name main_id)
          (Core.binds_of_group g))
      user
  in
  let p : Core.program =
    {
      p_binds = user @ List.map (fun b -> Core.Nonrec b) (impls @ dispatchers);
      p_main = (if has_main then Some main_id else None);
    }
  in
  Tc_core_ir.Core.regroup p
