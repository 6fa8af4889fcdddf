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

    Each declaration is a recovery boundary on the environment's sink.
    With a recovering sink, a bad declaration's error (a duplicate
    instance, a superclass cycle or missing coverage, a malformed head,
    etc.) is recorded, the declaration is skipped, and analysis continues
    with the remaining declarations. With a raising sink (the default
    environment's), the first such error raises
    {!Tc_support.Diagnostic.Error}.

    [env] may already hold the declarations of earlier files (see
    {!Class_env.extend}); this program's declarations extend it. A
    declaration that duplicates an earlier one is reported and skipped
    whole. [outer] names the values bound at the top level by earlier
    files and the primitives: a class method may not take one of those
    names. *)
val process :
  ?env:Class_env.t ->
  ?outer:Tc_support.Ident.Set.t ->
  Ast.program ->
  result
