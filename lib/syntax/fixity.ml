(** Fixity resolution.

    The parser leaves infix expressions as flat sequences ([EOpSeq]); this
    pass rebuilds them into left/right-nested applications once all [infixl]/
    [infixr]/[infix] declarations have been collected. Fixity declarations
    are treated as global to their file (local re-declarations apply
    file-wide), which matches how every realistic program uses them; a
    file is resolved with the fixities of the files before it (the
    prelude's) plus its own. *)

open Tc_support
open Ast

type fixity = { assoc : assoc; prec : int }

type env = fixity Ident.Map.t

let default_fixity = { assoc = LeftAssoc; prec = 9 }

(** The standard-prelude operator fixities, always in scope. *)
let builtin : env =
  let l p = { assoc = LeftAssoc; prec = p } in
  let r p = { assoc = RightAssoc; prec = p } in
  let n p = { assoc = NonAssoc; prec = p } in
  List.fold_left
    (fun m (name, fx) -> Ident.Map.add (Ident.intern name) fx m)
    Ident.Map.empty
    [
      (".", r 9);
      ("!!", l 9);
      ("^", r 8);
      ("*", l 7);
      ("/", l 7);
      ("div", l 7);
      ("mod", l 7);
      ("+", l 6);
      ("-", l 6);
      (":", r 5);
      ("++", r 5);
      ("==", n 4);
      ("/=", n 4);
      ("<", n 4);
      ("<=", n 4);
      (">", n 4);
      (">=", n 4);
      ("elem", n 4);
      ("notElem", n 4);
      ("&&", r 3);
      ("||", r 2);
      ("$", r 0);
    ]

let lookup env op =
  match Ident.Map.find_opt op env with Some f -> f | None -> default_fixity

(** Collect every fixity declaration in a program into [env]. *)
let collect_program (env : env) (prog : program) : env =
  let env = ref env in
  let add assoc prec ops =
    List.iter (fun op -> env := Ident.Map.add op { assoc; prec } !env) ops
  in
  let rec decl = function
    | DFix (a, p, ops, _) -> add a p ops
    | DFun (_, eq, _) -> rhs eq.eq_rhs
    | DPat (_, r, _) -> rhs r
    | DSig _ -> ()
  and rhs r = List.iter decl r.rhs_where
  in
  List.iter
    (function
      | TDecl d -> decl d
      | TClass c -> List.iter decl c.tc_body
      | TInstance i -> List.iter decl i.ti_body
      | TData _ | TSyn _ -> ())
    prog;
  !env

(* ------------------------------------------------------------------ *)
(* Rebuilding operator sequences.                                      *)
(* ------------------------------------------------------------------ *)

let op_expr op loc =
  let s = Ident.text op in
  let node =
    if String.length s > 0 && (s.[0] = ':' || (s.[0] >= 'A' && s.[0] <= 'Z'))
    then ECon op
    else EVar op
  in
  mk_expr ~loc node

let apply_op op oloc lhs rhs =
  let loc = Loc.merge lhs.e_loc rhs.e_loc in
  mk_expr ~loc (EApp (mk_expr ~loc (EApp (op_expr op oloc, lhs)), rhs))

(** Precedence-climbing resolution of a flat sequence. *)
let resolve_seq env first rest : expr =
  (* [climb lhs rest min_prec] consumes operators of precedence >= min_prec. *)
  let rec climb lhs rest min_prec =
    match rest with
    | [] -> (lhs, [])
    | (op, oloc, rhs0) :: rest1 ->
        let { assoc; prec } = lookup env op in
        if prec < min_prec then (lhs, rest)
        else begin
          (* check for an ambiguous same-precedence neighbour *)
          (match rest1 with
           | (op2, oloc2, _) :: _ ->
               let f2 = lookup env op2 in
               if f2.prec = prec
                  && (assoc = NonAssoc || f2.assoc = NonAssoc || assoc <> f2.assoc)
               then
                 Diagnostic.errorf ~loc:oloc2
                   "ambiguous use of operators '%s' and '%s' with equal \
                    precedence %d: add parentheses"
                   (Ident.text op) (Ident.text op2) prec
           | [] -> ());
          let sub_min = match assoc with RightAssoc -> prec | _ -> prec + 1 in
          let rhs, rest2 = climb rhs0 rest1 sub_min in
          climb (apply_op op oloc lhs rhs) rest2 min_prec
        end
  in
  match climb first rest 0 with
  | e, [] -> e
  | _, (op, oloc, _) :: _ ->
      Diagnostic.errorf ~loc:oloc "cannot resolve operator '%s'" (Ident.text op)

(* ------------------------------------------------------------------ *)
(* Traversal.                                                          *)
(* ------------------------------------------------------------------ *)

let rec expr env (e : expr) : expr =
  let mk node = { e with e = node } in
  match e.e with
  | EVar _ | ECon _ | ELit _ -> e
  | EApp (f, a) -> mk (EApp (expr env f, expr env a))
  | ELam (ps, b) -> mk (ELam (ps, expr env b))
  | ELet (ds, b) -> mk (ELet (List.map (decl env) ds, expr env b))
  | EIf (c, t, f) -> mk (EIf (expr env c, expr env t, expr env f))
  | ECase (s, alts) -> mk (ECase (expr env s, List.map (alt env) alts))
  | ETuple es -> mk (ETuple (List.map (expr env) es))
  | EList es -> mk (EList (List.map (expr env) es))
  | ERange (a, b) -> mk (ERange (expr env a, Option.map (expr env) b))
  | EAnnot (b, t) -> mk (EAnnot (expr env b, t))
  | ENeg b -> mk (ENeg (expr env b))
  | EOpSeq (first, rest) ->
      let first = expr env first in
      let rest = List.map (fun (op, l, e') -> (op, l, expr env e')) rest in
      resolve_seq env first rest
  | ELeftSection (b, op) -> mk (ELeftSection (expr env b, op))
  | ERightSection (op, b) -> mk (ERightSection (op, expr env b))

and alt env a = { a with alt_rhs = rhs env a.alt_rhs }

and rhs env r =
  let body =
    match r.rhs_body with
    | Unguarded e -> Unguarded (expr env e)
    | Guarded gs -> Guarded (List.map (fun (c, e) -> (expr env c, expr env e)) gs)
  in
  { r with rhs_body = body; rhs_where = List.map (decl env) r.rhs_where }

and decl env = function
  | DSig _ as d -> d
  | DFix _ as d -> d
  | DFun (n, eq, l) -> DFun (n, { eq with eq_rhs = rhs env eq.eq_rhs }, l)
  | DPat (p, r, l) -> DPat (p, rhs env r, l)

let top_decl env = function
  | TDecl d -> TDecl (decl env d)
  | TClass c -> TClass { c with tc_body = List.map (decl env) c.tc_body }
  | TInstance i -> TInstance { i with ti_body = List.map (decl env) i.ti_body }
  | (TData _ | TSyn _) as d -> d

(** Resolve all operator sequences in [prog], using fixities declared in
    [prog] itself plus the builtin table. *)
let resolve_program ?(env = builtin) (prog : program) : program * env =
  let env = collect_program env prog in
  (List.map (top_decl env) prog, env)
