(** Desugaring: surface syntax to kernel.

    - list / tuple / string literals become constructor applications;
    - multi-equation definitions, guards and [where] blocks become
      match-compiled lambdas ({!Match_comp});
    - pattern bindings are expanded into a tuple-style selector form;
    - [let] blocks and the top level are split into strongly-connected
      binding groups in dependency order (needed both for correct
      generalization and for the paper's §8.3 letrec treatment). *)

open Tc_support
module Ast = Tc_syntax.Ast
module Class_env = Tc_types.Class_env

let err = Diagnostic.errorf

let nil = Ident.intern "[]"
let cons = Ident.intern ":"
let unit_con = Ident.intern "()"
let negate_id = Ident.intern "negate"

(* ------------------------------------------------------------------ *)
(* Pattern normalization: remove list/tuple/string pattern sugar.      *)
(* ------------------------------------------------------------------ *)

let rec normalize_pat (env : Class_env.t) (p : Ast.pat) : Ast.pat =
  let mk node = { p with Ast.p = node } in
  match p.p with
  | Ast.PVar _ | Ast.PWild -> p
  | Ast.PLit (Ast.LString s) ->
      (* "ab" matches like 'a' : 'b' : [] *)
      let chars = List.init (String.length s) (String.get s) in
      List.fold_right
        (fun c acc ->
          mk (Ast.PCon (cons, [ mk (Ast.PLit (Ast.LChar c)); acc ])))
        chars
        (mk (Ast.PCon (nil, [])))
  | Ast.PLit _ -> p
  | Ast.PCon (c, args) -> mk (Ast.PCon (c, List.map (normalize_pat env) args))
  | Ast.PTuple [] -> mk (Ast.PCon (unit_con, []))
  | Ast.PTuple [ q ] -> normalize_pat env q
  | Ast.PTuple qs ->
      let ci = Class_env.tuple_con env (List.length qs) in
      mk (Ast.PCon (ci.con_name, List.map (normalize_pat env) qs))
  | Ast.PList qs ->
      List.fold_right
        (fun q acc -> mk (Ast.PCon (cons, [ normalize_pat env q; acc ])))
        qs
        (mk (Ast.PCon (nil, [])))
  | Ast.PAs (x, q) -> mk (Ast.PAs (x, normalize_pat env q))

let check_linear (pats : Ast.pat list) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v.Ident.id then
            err ~loc:p.Ast.p_loc "variable '%a' is bound twice in a pattern"
              Ident.pp v
          else Hashtbl.add seen v.Ident.id ())
        (Ast.pat_vars p))
    pats

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

let op_to_kernel op loc : Kernel.expr =
  let s = Ident.text op in
  if String.length s > 0 && (s.[0] = ':' || (s.[0] >= 'A' && s.[0] <= 'Z')) then
    Kernel.KCon (op, loc)
  else Kernel.KVar (op, loc)

let rec expr (env : Class_env.t) (e : Ast.expr) : Kernel.expr =
  let loc = e.e_loc in
  match e.e with
  | Ast.EVar x -> Kernel.KVar (x, loc)
  | Ast.ECon c -> Kernel.KCon (c, loc)
  | Ast.ELit (Ast.LString s) ->
      let chars = List.init (String.length s) (String.get s) in
      List.fold_right
        (fun c acc ->
          Kernel.kapps (Kernel.KCon (cons, loc))
            [ Kernel.KLit (Ast.LChar c, loc); acc ])
        chars
        (Kernel.KCon (nil, loc))
  | Ast.ELit l -> Kernel.KLit (l, loc)
  | Ast.EApp (f, a) -> Kernel.KApp (expr env f, expr env a)
  | Ast.ELam (pats, body) ->
      let pats = List.map (normalize_pat env) pats in
      check_linear pats;
      lambda env ~loc pats (expr env body) ~what:"lambda"
  | Ast.ELet (ds, body) ->
      let groups = nested_groups env ds in
      List.fold_right (fun g acc -> Kernel.KLet (g, acc)) groups (expr env body)
  | Ast.EIf (c, t, f) -> Kernel.KIf (expr env c, expr env t, expr env f)
  | Ast.ECase (scrut, alts) ->
      let v = Ident.gensym "scrut" in
      let equations =
        List.map
          (fun (a : Ast.alt) ->
            let p = normalize_pat env a.alt_pat in
            check_linear [ p ];
            { Match_comp.mc_pats = [ p ]; mc_body = rhs_body env a.alt_rhs })
          alts
      in
      let fail = Kernel.KFail ("non-exhaustive case expression", loc) in
      let compiled =
        Match_comp.compile ~env ~loc ~scrutinees:[ v ] ~equations ~fail
      in
      warn_nonexhaustive env ~loc ~what:"a case expression" fail compiled;
      Kernel.KLet
        ( Kernel.KNonrec
            {
              kb_name = v;
              kb_expr = expr env scrut;
              kb_sig = None;
              kb_restricted = true;
              kb_loc = loc;
            },
          compiled )
  | Ast.ETuple [] -> Kernel.KCon (unit_con, loc)
  | Ast.ETuple [ e1 ] -> expr env e1
  | Ast.ETuple es ->
      let ci = Class_env.tuple_con env (List.length es) in
      Kernel.kapps (Kernel.KCon (ci.con_name, loc)) (List.map (expr env) es)
  | Ast.ERange (a, b) ->
      (* [a..b] / [a..] are sugar for the prelude's enumFromTo / enumFrom *)
      let fn = match b with Some _ -> "enumFromTo" | None -> "enumFrom" in
      Kernel.kapps
        (Kernel.KVar (Ident.intern fn, loc))
        (expr env a :: (match b with Some b -> [ expr env b ] | None -> []))
  | Ast.EList es ->
      List.fold_right
        (fun e1 acc -> Kernel.kapps (Kernel.KCon (cons, loc)) [ expr env e1; acc ])
        es
        (Kernel.KCon (nil, loc))
  | Ast.EAnnot (e1, q) -> Kernel.KAnnot (expr env e1, q, loc)
  | Ast.ENeg e1 -> Kernel.KApp (Kernel.KVar (negate_id, loc), expr env e1)
  | Ast.EOpSeq _ ->
      invalid_arg "Desugar.expr: operator sequence not fixity-resolved"
  | Ast.ELeftSection (e1, op) -> Kernel.KApp (op_to_kernel op loc, expr env e1)
  | Ast.ERightSection (op, e1) ->
      let x = Ident.gensym "x" in
      Kernel.KLam
        ( [ x ],
          Kernel.kapps (op_to_kernel op loc) [ Kernel.KVar (x, loc); expr env e1 ]
        )

(** Build [\p1 ... pn -> body], match-compiling non-variable patterns. *)
and lambda env ~loc (pats : Ast.pat list) (body : Kernel.expr) ~what : Kernel.expr
    =
  let all_vars =
    List.for_all (fun (p : Ast.pat) -> match p.p with Ast.PVar _ -> true | _ -> false) pats
  in
  if all_vars then
    Kernel.KLam
      ( List.map
          (fun (p : Ast.pat) ->
            match p.Ast.p with Ast.PVar x -> x | _ -> assert false)
          pats,
        body )
  else begin
    let vars = List.map (fun _ -> Ident.gensym "a") pats in
    let equations =
      [ { Match_comp.mc_pats = pats; mc_body = (fun ~fail -> ignore fail; body) } ]
    in
    Kernel.KLam
      ( vars,
        Match_comp.compile ~env ~loc ~scrutinees:vars ~equations
          ~fail:
            (Kernel.KFail
               (Printf.sprintf "non-exhaustive patterns in %s" what, loc)) )
  end

(** The right-hand side of an equation/alternative as a body builder: the
    [where] block scopes over the guards, and failed guards evaluate the
    [fail] continuation. *)
and rhs_body env (r : Ast.rhs) : fail:Kernel.expr -> Kernel.expr =
 fun ~fail ->
  (* a final [otherwise] (or literal [True]) guard is unconditional, so the
     failure continuation is unreachable — recognize it both to avoid dead
     code and to keep exhaustiveness warnings quiet *)
  let is_otherwise (c : Ast.expr) =
    match c.e with
    | Ast.EVar v -> Ident.text v = "otherwise"
    | Ast.ECon c' -> Ident.text c' = "True"
    | _ -> false
  in
  let inner =
    match r.rhs_body with
    | Ast.Unguarded e -> expr env e
    | Ast.Guarded guards ->
        let rec build = function
          | [] -> fail
          | [ (cond, e) ] when is_otherwise cond -> expr env e
          | (cond, e) :: rest -> Kernel.KIf (expr env cond, expr env e, build rest)
        in
        build guards
  in
  match r.rhs_where with
  | [] -> inner
  | ds ->
      let groups = nested_groups env ds in
      List.fold_right (fun g acc -> Kernel.KLet (g, acc)) groups inner

(* ------------------------------------------------------------------ *)
(* Exhaustiveness warnings.                                            *)
(* ------------------------------------------------------------------ *)

(** Does [needle] (a specific [KFail] node) remain reachable in [e]?
    Physical identity makes this precise: the match compiler inserts the
    failure continuation only where no equation covers a case. *)
and kfail_reachable (needle : Kernel.expr) (e : Kernel.expr) : bool =
  if e == needle then true
  else
    match e with
    | Kernel.KVar _ | Kernel.KCon _ | Kernel.KLit _ | Kernel.KFail _ -> false
    | Kernel.KApp (f, a) -> kfail_reachable needle f || kfail_reachable needle a
    | Kernel.KLam (_, b) | Kernel.KAnnot (b, _, _) -> kfail_reachable needle b
    | Kernel.KLet (g, b) ->
        List.exists
          (fun (kb : Kernel.bind) -> kfail_reachable needle kb.kb_expr)
          (Kernel.binds_of_group g)
        || kfail_reachable needle b
    | Kernel.KIf (c, t, f) ->
        kfail_reachable needle c || kfail_reachable needle t
        || kfail_reachable needle f
    | Kernel.KCase (s, alts, d) ->
        kfail_reachable needle s
        || List.exists (fun (a : Kernel.alt) -> kfail_reachable needle a.ka_body) alts
        || (match d with Some d -> kfail_reachable needle d | None -> false)

and warn_nonexhaustive env ~(loc : Loc.t) ~what fail compiled =
  if loc.Loc.file <> "<prelude>" && kfail_reachable fail compiled then
    Diagnostic.Sink.warn env.Class_env.sink ~loc
      "pattern matching in %s may be non-exhaustive" what

(* ------------------------------------------------------------------ *)
(* Function bindings.                                                  *)
(* ------------------------------------------------------------------ *)

(** Desugar a (grouped) function binding into a single expression. *)
and fun_bind_expr env (fb : Ast.fun_bind) : Kernel.expr =
  let arity =
    match fb.fb_equations with
    | eq :: _ -> List.length eq.eq_pats
    | [] -> assert false
  in
  List.iter
    (fun (eq : Ast.equation) ->
      if List.length eq.eq_pats <> arity then
        err ~loc:fb.fb_loc
          "equations for '%a' have different numbers of arguments" Ident.pp
          fb.fb_name)
    fb.fb_equations;
  if arity = 0 then begin
    match fb.fb_equations with
    | [ eq ] ->
        rhs_body env eq.eq_rhs
          ~fail:
            (Kernel.KFail
               ( Printf.sprintf "non-exhaustive guards in '%s'"
                   (Ident.text fb.fb_name),
                 fb.fb_loc ))
    | _ ->
        err ~loc:fb.fb_loc "multiple equations for '%a' require arguments"
          Ident.pp fb.fb_name
  end
  else begin
    let vars = List.map (fun _ -> Ident.gensym "a") (List.init arity Fun.id) in
    let equations =
      List.map
        (fun (eq : Ast.equation) ->
          let pats = List.map (normalize_pat env) eq.eq_pats in
          check_linear pats;
          { Match_comp.mc_pats = pats; mc_body = rhs_body env eq.eq_rhs })
        fb.fb_equations
    in
    let fail =
      Kernel.KFail
        ( Printf.sprintf "non-exhaustive patterns in '%s'" (Ident.text fb.fb_name),
          fb.fb_loc )
    in
    let compiled =
      Match_comp.compile ~env ~loc:fb.fb_loc ~scrutinees:vars ~equations ~fail
    in
    warn_nonexhaustive env ~loc:fb.fb_loc
      ~what:(Printf.sprintf "the definition of '%s'" (Ident.text fb.fb_name))
      fail compiled;
    Kernel.KLam (vars, compiled)
  end

(* ------------------------------------------------------------------ *)
(* Binding blocks: signatures, pattern-binding expansion, SCCs.        *)
(* ------------------------------------------------------------------ *)

and decls_to_groups ~sink ?(outer = Ident.Set.empty) env (ds : Ast.decl list)
    : Kernel.group list =
  (* per-item recovery boundary: with a recovering [sink], a bad signature
     or binding loses only itself (references to it desugar as free
     variables and are reported at their use sites); with a raising one,
     the error propagates *)
  let g ~loc f =
    Diagnostic.guard ~sink ~stage:"desugaring" ~loc ~recover:(fun () -> ()) f
  in
  let grouped = Ast.group_decls ds in
  (* signatures *)
  let sigs : Ast.sqtyp Ident.Tbl.t = Ident.Tbl.create 8 in
  List.iter
    (fun (names, q, loc) ->
      g ~loc @@ fun () ->
      List.iter
        (fun n ->
          if Ident.Tbl.mem sigs n then
            err ~loc "duplicate type signature for '%a'" Ident.pp n;
          Ident.Tbl.add sigs n q)
        names)
    grouped.g_sigs;
  (* raw bindings *)
  let binds : Kernel.bind list ref = ref [] in
  let bound : Loc.t Ident.Tbl.t = Ident.Tbl.create 8 in
  let add_bind ~loc name e ~restricted_without_sig =
    if Ident.Set.mem name outer then
      err ~loc
        "'%a' is already defined (by the prelude, or as a primitive) and \
         cannot be redefined"
        Ident.pp name;
    if Ident.Tbl.mem bound name then
      err ~loc "'%a' is bound more than once in the same block" Ident.pp name;
    Ident.Tbl.add bound name loc;
    let sg = Ident.Tbl.find_opt sigs name in
    binds :=
      {
        Kernel.kb_name = name;
        kb_expr = e;
        kb_sig = sg;
        kb_restricted = restricted_without_sig && sg = None;
        kb_loc = loc;
      }
      :: !binds
  in
  List.iter
    (fun b ->
      let bloc =
        match b with
        | Ast.BFun fb -> fb.Ast.fb_loc
        | Ast.BPat (p, _, _) -> p.Ast.p_loc
      in
      g ~loc:bloc @@ fun () ->
      match b with
      | Ast.BFun fb ->
          let arity =
            match fb.fb_equations with
            | eq :: _ -> List.length eq.eq_pats
            | [] -> assert false
          in
          add_bind ~loc:fb.fb_loc fb.fb_name (fun_bind_expr env fb)
            ~restricted_without_sig:(arity = 0)
      | Ast.BPat ({ p = Ast.PVar x; p_loc }, r, _) ->
          add_bind ~loc:p_loc x
            (rhs_body env r
               ~fail:
                 (Kernel.KFail
                    ( Printf.sprintf "non-exhaustive guards in '%s'"
                        (Ident.text x),
                      p_loc )))
            ~restricted_without_sig:true
      | Ast.BPat (p, r, loc) ->
          (* p = e  ⇒  tmp = e; x = case tmp of p -> x  (for each x in p) *)
          let p = normalize_pat env p in
          check_linear [ p ];
          let vars = Ast.pat_vars p in
          if vars = [] then
            err ~loc "pattern binding binds no variables";
          let tmp = Ident.gensym "pb" in
          add_bind ~loc tmp
            (rhs_body env r
               ~fail:(Kernel.KFail ("non-exhaustive pattern binding", loc)))
            ~restricted_without_sig:true;
          List.iter
            (fun x ->
              let sel =
                Match_comp.compile ~env ~loc ~scrutinees:[ tmp ]
                  ~equations:
                    [
                      {
                        Match_comp.mc_pats = [ p ];
                        mc_body = (fun ~fail -> ignore fail; Kernel.KVar (x, loc));
                      };
                    ]
                  ~fail:
                    (Kernel.KFail ("non-exhaustive pattern binding", loc))
              in
              add_bind ~loc x sel ~restricted_without_sig:true)
            vars)
    grouped.g_binds;
  let binds = List.rev !binds in
  (* signatures without a binding *)
  Ident.Tbl.iter
    (fun n q ->
      if not (Ident.Tbl.mem bound n) then
        g ~loc:q.Ast.sq_loc (fun () ->
            err ~loc:q.Ast.sq_loc
              "type signature for '%a' lacks an accompanying binding" Ident.pp
              n))
    sigs;
  scc_groups binds

(** Split a list of bindings into strongly-connected components, returned in
    dependency order. *)
and scc_groups (binds : Kernel.bind list) : Kernel.group list =
  List.map
    (function
      | [ b ], false -> Kernel.KNonrec b
      | bs, _ -> Kernel.KRec bs)
    (Scc.components
       ~name:(fun (b : Kernel.bind) -> b.kb_name)
       ~free:(fun (b : Kernel.bind) -> Kernel.free_vars b.kb_expr)
       binds)

(* A [let] or [where] block: no recovery inside it, so an error loses the
   enclosing top-level binding. *)
and nested_groups env ds =
  decls_to_groups ~sink:(Diagnostic.Sink.raising ()) env ds

(** Desugar top-level value declarations (signatures and bindings). *)
let top_decls ~sink ?outer env (ds : Ast.decl list) : Kernel.group list =
  decls_to_groups ~sink ?outer env ds
