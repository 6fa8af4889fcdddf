(** Well-formedness checking for core programs: no unresolved placeholders,
    every variable in scope. Runs after type checking and after each
    optimizer pipeline. *)

open Tc_support

type error = { lint_msg : string }

exception Lint of error

val check_expr : globals:Ident.Set.t -> Core.expr -> unit

(** Check a whole program, given the ambient primitive names. [scope]
    (empty by default) names further globals the program may refer to:
    the bindings of the snapshot a compile extends. *)
val check_program :
  ?scope:Ident.Set.t -> primitives:Ident.t list -> Core.program -> unit
