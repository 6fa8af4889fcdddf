(** The static type environment (paper §4): type constructors, data
    constructors, type synonyms, classes (superclasses, methods, defaults)
    and instances (per-argument contexts and generated dictionary names).

    Populated by {!Static.process}; the record fields are mutable so the
    environment can be extended in passes. *)

open Tc_support
module Ast = Tc_syntax.Ast

type con_info = {
  con_name : Ident.t;
  con_tycon : Tycon.t;
  con_scheme : Scheme.t;      (** forall as. t1 -> ... -> tn -> T as *)
  con_params : Ty.tyvar list; (** quantified variables, head order *)
  con_args : Ty.t list;       (** argument types over [con_params] *)
  con_tag : int;              (** position among the tycon's constructors *)
  con_arity : int;
  con_span : int;             (** number of constructors of the tycon *)
}

type method_info = {
  mi_name : Ident.t;
  mi_class : Ident.t;
  mi_index : int;             (** slot among the methods of its class *)
  mi_sig : Ast.sqtyp;         (** declared signature; may add context (§8.5) *)
  mi_has_default : bool;
}

type class_info = {
  ci_name : Ident.t;
  ci_var : Ident.t;           (** the class type variable *)
  ci_supers : Ident.t list;   (** direct superclasses *)
  ci_methods : Ident.t list;  (** method names, declaration order *)
  ci_defaults : (Ident.t * Ast.fun_bind) list;  (** default bodies (§8.2) *)
  ci_loc : Loc.t;
}

(** How an instance fills a method slot. *)
type impl =
  | User_impl of Ident.t      (** generated global with the user definition *)
  | Default_impl              (** fall back to the class default (§8.2) *)

type inst_info = {
  in_class : Ident.t;
  in_tycon : Ident.t;
  in_params : Ident.t list;          (** instance head variables *)
  in_context : Ty.Context.t array;   (** per head variable (paper §4) *)
  in_dict : Ident.t;                 (** generated dictionary name, d$C$T *)
  in_impls : (Ident.t * impl) list;  (** per method, declaration order *)
  in_body : Ast.decl list;           (** the user's method definitions *)
  in_loc : Loc.t;
}

type t = {
  mutable tycons : Tycon.t Ident.Map.t;
  mutable datacons : con_info Ident.Map.t;
  mutable tycon_cons : Ident.t list Ident.Map.t;
  mutable synonyms : (Ident.t list * Ast.styp) Ident.Map.t;
  mutable classes : class_info Ident.Map.t;
  mutable methods : method_info Ident.Map.t;
  mutable instances : inst_info Ident.Map.t Ident.Map.t;  (** class → tycon → info *)
  sink : Diagnostic.Sink.sink;
  mutable trace : Tc_obs.Trace.t;
  (** where inference/unification emit trace events; [Trace.none] (the
      default) disables tracing *)
}

(** A fresh environment containing the builtin tycons and data constructors
    (nil, cons, unit). It reports into a raising (fail-fast) sink. *)
val create : unit -> t

(** A fresh environment extending [env] in O(1): the tables are
    persistent maps, so this copies the record, and additions made
    through the copy never reach [env]. The copy reports into [sink]
    (a new raising one by default) and has tracing off. *)
val extend : ?sink:Diagnostic.Sink.sink -> t -> t

(** The constructor of the [n]-tuple, registered on first use. *)
val tuple_con : t -> int -> con_info

(** {2 Lookup} *)

val find_tycon : t -> Ident.t -> Tycon.t option
val find_datacon : t -> Ident.t -> con_info option
val find_synonym : t -> Ident.t -> (Ident.t list * Ast.styp) option
val find_class : t -> Ident.t -> class_info option
val find_method : t -> Ident.t -> method_info option
val class_exn : t -> ?loc:Loc.t -> Ident.t -> class_info
val constructors_of : t -> Ident.t -> Ident.t list
val find_instance : t -> cls:Ident.t -> tycon:Ident.t -> inst_info option
val all_instances : t -> inst_info list
val all_classes : t -> class_info list

(** {2 Superclasses (§8.1)} *)

(** All strict superclasses, transitively. *)
val supers_closure : t -> Ident.t -> Ident.t list

(** [implies env c c']: a [c] dictionary can supply a [c'] dictionary. *)
val implies : t -> Ident.t -> Ident.t -> bool

(** Remove classes implied by other members (superclass absorption). *)
val reduce_context : t -> Ty.Context.t -> Ty.Context.t

val context_add : t -> Ty.Context.t -> Ident.t -> Ty.Context.t
val context_union : t -> Ty.Context.t -> Ty.Context.t -> Ty.Context.t

(** {2 Generated names} ('$' cannot appear in source identifiers) *)

val tycon_label : Ident.t -> string
val dict_name : cls:Ident.t -> tycon:Ident.t -> Ident.t
val impl_name : cls:Ident.t -> tycon:Ident.t -> meth:Ident.t -> Ident.t
val default_name : cls:Ident.t -> meth:Ident.t -> Ident.t
