(** The core language: the target of type checking and dictionary
    conversion. Overloading is gone — dictionaries are ordinary values,
    built with [MkDict] and consulted with [Sel] (both instrumentable).
    During checking the translation contains [Hole] placeholders (§6.1);
    generalization fills every hole. *)

open Tc_support

type lit = Tc_syntax.Ast.lit

(** A dispatch site: the identity of one [Sel]/[MkDict] node as created by
    dictionary conversion. Ids are unique per process and survive
    optimization and VM compilation, enabling per-site runtime profiling. *)
type site = {
  site_id : int;
  site_loc : Loc.t;
}

(** Which instance built a dictionary (debugging/statistics). *)
type dict_tag = {
  dt_class : Ident.t;
  dt_tycon : Ident.t;
  dt_site : site;
}

(** A selection out of a dictionary tuple. *)
type sel_info = {
  sel_class : Ident.t;
  sel_index : int;
  sel_label : string;  (** method or superclass name, for printing *)
  sel_site : site;
}

(** A placeholder awaiting resolution at generalization time. *)
type hole = {
  hole_id : int;
  mutable hole_fill : expr option;
}

and expr =
  | Var of Ident.t
  | Lit of lit
  | Con of Ident.t                    (** data constructor (curried) *)
  | App of expr * expr
  | Lam of Ident.t list * expr
  | Let of bind_group * expr
  | If of expr * expr * expr
  | Case of expr * alt list * expr option
  | MkDict of dict_tag * expr list
  | Sel of sel_info * expr
  | Hole of hole

and alt = {
  alt_con : test;
  alt_vars : Ident.t list;
  alt_body : expr;
}

and test =
  | Tcon of Ident.t
  | Tlit of lit

and bind = { b_name : Ident.t; b_expr : expr }

and bind_group =
  | Nonrec of bind
  | Rec of bind list

type program = {
  p_binds : bind_group list;  (** in dependency order *)
  p_main : Ident.t option;
}

val fresh_hole : unit -> hole

(** Mint a dispatch site (see {!site}); [loc] defaults to {!Loc.none}. *)
val fresh_site : ?loc:Loc.t -> unit -> site

(** {2 Constructors and helpers} *)

val var : Ident.t -> expr
val app : expr -> expr -> expr
val apps : expr -> expr list -> expr

(** [lam vs body]: a lambda, flattening nested lambdas; identity when
    [vs] is empty. *)
val lam : Ident.t list -> expr -> expr

val let1 : Ident.t -> expr -> expr -> expr

(** Split nested applications: [f a b] ↦ ([f], [a; b]). *)
val unfold_app : expr -> expr list -> expr * expr list

val binds_of_group : bind_group -> bind list

(** {2 Traversal} *)

(** Shallow map over immediate subexpressions (filled holes map their
    contents). *)
val map_sub : (expr -> expr) -> expr -> expr

val iter_sub : (expr -> unit) -> expr -> unit

(** Replace every filled hole by its contents; raises on unfilled holes. *)
val squash : expr -> expr

val squash_program : program -> program

(** {2 Analysis} *)

val free_vars : expr -> Ident.Set.t

(** Regroup a program's top-level bindings into minimal
    strongly-connected groups in dependency order. *)
val regroup : program -> program

val size : expr -> int

(** The summed {!size} of every top-level binding. *)
val program_size : program -> int

(** Static [(Sel, MkDict)] node counts of a program. *)
val static_dict_ops : program -> int * int

(** Capture-avoiding substitution of variables by expressions. *)
val subst : expr Ident.Map.t -> expr -> expr
