(** Abstract syntax of the MiniHaskell surface language. *)

open Tc_support

type id = Ident.t

type lit =
  | LInt of int
  | LFloat of float
  | LChar of char
  | LString of string

(* ------------------------------------------------------------------ *)
(* Types as written in the source.                                     *)
(* ------------------------------------------------------------------ *)

type styp =
  | TSVar of id                (* a *)
  | TSCon of id                (* Int, Maybe, ... *)
  | TSApp of styp * styp       (* Maybe a; left-nested application *)
  | TSFun of styp * styp       (* t1 -> t2 *)
  | TSList of styp             (* [t] *)
  | TSTuple of styp list       (* (t1, t2, ...); [] is the unit type *)

(** A single class constraint, e.g. [Eq a]. The constrained type is usually a
    variable; instance heads constrain a constructor application. *)
type spred = { sp_class : id; sp_ty : styp; sp_loc : Loc.t }

(** A qualified type: [context => type]. *)
type sqtyp = { sq_context : spred list; sq_ty : styp; sq_loc : Loc.t }

(* ------------------------------------------------------------------ *)
(* Patterns.                                                           *)
(* ------------------------------------------------------------------ *)

type pat = { p : pat_node; p_loc : Loc.t }

and pat_node =
  | PVar of id
  | PWild
  | PLit of lit
  | PCon of id * pat list      (* constructor pattern, fully applied *)
  | PTuple of pat list
  | PList of pat list          (* [p1, p2, ...] *)
  | PAs of id * pat            (* x@p *)

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

type expr = { e : expr_node; e_loc : Loc.t }

and expr_node =
  | EVar of id
  | ECon of id
  | ELit of lit
  | EApp of expr * expr
  | ELam of pat list * expr
  | ELet of decl list * expr
  | EIf of expr * expr * expr
  | ECase of expr * alt list
  | ETuple of expr list        (* (e1, e2, ...); [] is the unit value *)
  | EList of expr list
  | ERange of expr * expr option  (* [a..b] / [a..] *)
  | EAnnot of expr * sqtyp     (* e :: ty *)
  | ENeg of expr               (* unary minus; resolves to [negate] *)
  (* A flat infix sequence [e0 op1 e1 op2 e2 ...]; rewritten into
     applications by {!Fixity.resolve} once fixities are known. *)
  | EOpSeq of expr * (id * Loc.t * expr) list
  | ELeftSection of expr * id  (* (e op) *)
  | ERightSection of id * expr (* (op e) *)

and alt = { alt_pat : pat; alt_rhs : rhs }

(** Right-hand side: either a plain expression or boolean guards, plus an
    optional [where] block. *)
and rhs = { rhs_body : guarded; rhs_where : decl list; rhs_loc : Loc.t }

and guarded =
  | Unguarded of expr
  | Guarded of (expr * expr) list  (* [(condition, body); ...] *)

(* ------------------------------------------------------------------ *)
(* Declarations.                                                       *)
(* ------------------------------------------------------------------ *)

and assoc = LeftAssoc | RightAssoc | NonAssoc

(** Declarations that may appear in [let]/[where] blocks (and, lifted, at the
    top level). A function may be defined by several adjacent equations; the
    parser emits one [DFun] per equation and {!group_equations} merges them. *)
and decl =
  | DSig of id list * sqtyp * Loc.t          (* f, g :: ty *)
  | DFun of id * equation * Loc.t            (* one defining equation *)
  | DPat of pat * rhs * Loc.t                (* pattern binding, incl. x = e *)
  | DFix of assoc * int * id list * Loc.t    (* fixity declaration *)

and equation = { eq_pats : pat list; eq_rhs : rhs }

(* ------------------------------------------------------------------ *)
(* Top-level declarations.                                             *)
(* ------------------------------------------------------------------ *)

type con_decl = {
  cd_name : id;
  cd_args : styp list;
  cd_loc : Loc.t;
}

type data_decl = {
  td_name : id;
  td_params : id list;
  td_cons : con_decl list;
  td_deriving : id list;
  td_loc : Loc.t;
}

type syn_decl = {
  ts_name : id;
  ts_params : id list;
  ts_body : styp;
  ts_loc : Loc.t;
}

type class_decl = {
  tc_supers : spred list;      (* superclass context, constrains tc_var *)
  tc_name : id;
  tc_var : id;                 (* the class type variable *)
  tc_body : decl list;         (* method signatures and default methods *)
  tc_loc : Loc.t;
}

type inst_decl = {
  ti_context : spred list;     (* instance context *)
  ti_class : id;
  ti_head : styp;              (* T a1 ... an *)
  ti_body : decl list;         (* method definitions *)
  ti_loc : Loc.t;
}

type top_decl =
  | TData of data_decl
  | TSyn of syn_decl
  | TClass of class_decl
  | TInstance of inst_decl
  | TDecl of decl

type program = top_decl list

(* ------------------------------------------------------------------ *)
(* Grouping adjacent equations of the same function.                   *)
(* ------------------------------------------------------------------ *)

(** A function binding after grouping: name and its defining equations. *)
type fun_bind = { fb_name : id; fb_equations : equation list; fb_loc : Loc.t }

type binding =
  | BFun of fun_bind
  | BPat of pat * rhs * Loc.t

(** Declarations of a block, separated into signatures and bindings,
    with adjacent equations of the same name merged. Fixity declarations
    ({!Fixity} has applied them) end a run of equations and are dropped. *)
type grouped = {
  g_sigs : (id list * sqtyp * Loc.t) list;
  g_binds : binding list;
}

let group_decls (ds : decl list) : grouped =
  let sigs = ref [] and binds = ref [] in
  let flush_fun = ref None in
  let flush () =
    match !flush_fun with
    | None -> ()
    | Some fb ->
        binds := BFun { fb with fb_equations = List.rev fb.fb_equations } :: !binds;
        flush_fun := None
  in
  let add_eq name eq loc =
    match !flush_fun with
    | Some fb when Ident.equal fb.fb_name name ->
        flush_fun := Some { fb with fb_equations = eq :: fb.fb_equations }
    | _ ->
        flush ();
        flush_fun := Some { fb_name = name; fb_equations = [ eq ]; fb_loc = loc }
  in
  List.iter
    (fun d ->
      match d with
      | DSig (ns, t, l) ->
          flush ();
          sigs := (ns, t, l) :: !sigs
      | DFix _ -> flush ()
      | DFun (name, eq, l) -> add_eq name eq l
      | DPat (p, r, l) ->
          flush ();
          binds := BPat (p, r, l) :: !binds)
    ds;
  flush ();
  { g_sigs = List.rev !sigs; g_binds = List.rev !binds }

(* ------------------------------------------------------------------ *)
(* Small helpers.                                                      *)
(* ------------------------------------------------------------------ *)

let mk_expr ~loc e = { e; e_loc = loc }
let mk_pat ~loc p = { p; p_loc = loc }

(** Variables bound by a pattern, left to right. *)
let rec pat_vars (p : pat) : id list =
  match p.p with
  | PVar x -> [ x ]
  | PWild | PLit _ -> []
  | PCon (_, ps) | PTuple ps | PList ps -> List.concat_map pat_vars ps
  | PAs (x, q) -> x :: pat_vars q

(** Apply a function expression to arguments, left-nested. *)
let apply f args =
  List.fold_left
    (fun acc a -> mk_expr ~loc:(Loc.merge f.e_loc a.e_loc) (EApp (acc, a)))
    f args
