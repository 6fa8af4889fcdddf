(** Unification with class-context propagation (paper §5).

    When a type variable is instantiated its context is passed on: another
    variable absorbs it by (superclass-reduced) union; a constructor
    triggers {e context reduction} through the instance declarations,
    failing with "no instance" when the constructor is not in the class.
    Read-only variables (§8.6) refuse instantiation and context growth. *)

open Tc_support

(** Propagate a context onto a type (the paper's [propagateClasses]).
    Raises {!Diagnostic.Error} on a missing instance or a read-only
    violation. *)
val propagate_classes :
  Class_env.t -> loc:Loc.t -> Ty.Context.t -> Ty.t -> unit

(** Context reduction at a constructor (the paper's [propagateClassTycon]). *)
val propagate_class_tycon :
  Class_env.t -> loc:Loc.t -> Ident.t -> Tycon.t -> Ty.t list -> unit

(** Instantiate an unbound variable (occurs check, level adjustment,
    context propagation). *)
val instantiate_tyvar : Class_env.t -> loc:Loc.t -> Ty.tyvar -> Ty.t -> unit

(** Unify two types. Raises {!Diagnostic.Error} with a located message on
    mismatch, occurs-check failure, missing instance, or a signature
    violation. *)
val unify : Class_env.t -> loc:Loc.t -> Ty.t -> Ty.t -> unit
