(** Static analysis (paper §4): collect and validate all top-level type,
    class and instance declarations into a {!Class_env.t}; expand
    [deriving] clauses; return the value-level declarations for the
    type checker. *)

module Ast = Tc_syntax.Ast

type result = {
  env : Class_env.t;
  value_decls : Ast.decl list;
}

(** Process a program's top-level declarations.

    With [fail_fast] (the default), raises {!Tc_support.Diagnostic.Error}
    on duplicate instances, superclass cycles or missing coverage,
    malformed heads, etc. With [~fail_fast:false], each bad declaration's
    error is recorded in the environment's sink, the declaration is
    skipped, and analysis continues with the remaining declarations.

    [env] may already hold the declarations of earlier files (see
    {!Class_env.extend}); this program's declarations extend it. A
    declaration that duplicates an earlier one is reported and skipped
    whole. [outer] names the values bound at the top level by earlier
    files and the primitives: a class method may not take one of those
    names. *)
val process :
  ?env:Class_env.t ->
  ?fail_fast:bool ->
  ?outer:Tc_support.Ident.Set.t ->
  Ast.program ->
  result
