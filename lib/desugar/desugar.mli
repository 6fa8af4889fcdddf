(** Desugaring: surface syntax to kernel. List/tuple/string sugar becomes
    constructor applications; equations, guards and [where] are
    match-compiled; pattern bindings are expanded; [let] blocks and the top
    level are split into strongly-connected binding groups in dependency
    order (needed for correct generalization and §8.3). *)

module Ast = Tc_syntax.Ast
module Class_env = Tc_types.Class_env

(** Remove list/tuple/string pattern sugar (registers tuple constructors). *)
val normalize_pat : Class_env.t -> Ast.pat -> Ast.pat

val expr : Class_env.t -> Ast.expr -> Kernel.expr

(** Desugar a grouped function binding into a single (match-compiled)
    expression; used for instance methods and class defaults. *)
val fun_bind_expr : Class_env.t -> Ast.fun_bind -> Kernel.expr

(** Desugar top-level value declarations into binding groups in
    dependency order. The block is one file's top level: a binding may
    refer to the names in [outer] (those bound by earlier files and the
    primitives; empty by default) but may not rebind them. Each signature
    group and binding is a recovery boundary on [sink]: with a recovering
    sink, a declaration that fails to desugar is reported and dropped,
    and the rest of the block still desugars; with a raising sink, the
    first error raises. *)
val top_decls :
  sink:Tc_support.Diagnostic.Sink.sink ->
  ?outer:Tc_support.Ident.Set.t ->
  Class_env.t ->
  Ast.decl list ->
  Kernel.group list
