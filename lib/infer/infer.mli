(** Type inference with integrated dictionary conversion (paper §5–§6).

    One walk over the kernel program produces a core translation:
    overloaded occurrences become placeholders ([Core.Hole]); at
    generalization, dictionary parameters are invented for each
    generalized variable's context (§6.2) and every pending placeholder is
    resolved by the four cases of §6.3 (parameter lookup / instance lookup
    / deferral / defaulting-or-ambiguity). Also implemented here: letrec
    common contexts (§8.3), signatures via read-only variables (§8.6), the
    monomorphism restriction (§8.7) and overloaded integer literals. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Ty = Tc_types.Ty
module Scheme = Tc_types.Scheme
module Class_env = Tc_types.Class_env
module Kernel = Tc_desugar.Kernel
module Core = Tc_core_ir.Core
module Layout = Tc_dicts.Layout

type options = {
  strategy : Layout.strategy;
  overloaded_literals : bool;  (** integer literals as [Num a => a] *)
  defaulting : bool;           (** resolve ambiguous numeric contexts *)
}

val default_options : options

(** Value-environment entries. *)
type entry =
  | Mono of Ty.t           (** lambda / case binders *)
  | Poly of Scheme.t       (** generalized bindings *)
  | Recursive of Ty.t      (** members of the group being checked *)

type venv = entry Ident.Map.t

(** Checker state: the class environment, current level and the stack of
    pending-placeholder scopes. *)
type state

val create_state : ?opts:options -> Class_env.t -> state

(** Open/close a pending-placeholder scope. The caller must push one
    top-level scope before checking and call {!final_resolve} at the end. *)
val push_scope : state -> unit

(** Pop the innermost scope, returning its unresolved placeholders (opaque;
    tooling that only types an expression discards them). *)
type pending

val pop_scope : state -> pending

(** Infer a type and core translation for an expression. *)
val infer_expr : state -> venv -> Kernel.expr -> Ty.t * Core.expr

(** Check one binding group: inference, generalization with dictionary
    parameters, placeholder resolution. Returns the extended environment
    and the translated group. *)
val infer_group : state -> venv -> Kernel.group -> venv * Core.bind_group

(** Check a binding against an externally-supplied qualified type (used for
    instance method implementations and class defaults); the signature's
    context order fixes the dictionary parameters. *)
val check_signature_binding :
  state ->
  venv ->
  name:Ident.t ->
  q:Ast.sqtyp ->
  loc:Loc.t ->
  Kernel.expr ->
  Core.bind * Scheme.t

(** Resolve everything deferred to the top level (restricted bindings,
    ambiguous literals), applying defaulting. Each placeholder is a
    recovery boundary on the state's sink: with a recovering sink, one
    that fails to resolve (ambiguity, missing instance) records its own
    diagnostic and resolution continues with the remaining placeholders;
    with a raising sink, the first failure raises. *)
val final_resolve : state -> unit

(** The scheme assigned to binders of a failed binding group:
    [forall a. a]. Unifies with anything, carries no context, and so
    never produces a second diagnostic downstream. *)
val error_scheme : unit -> Scheme.t

(** [protect st ~stage ~loc ~recover f]: run [f]; when it raises
    {!Tc_support.Diagnostic.Error} (or any unexpected exception, recorded
    as an ICE), record the diagnostic in the state's sink, restore the
    checker's level and placeholder-scope stack to their state before the
    call, and return [recover ()]. The per-binding-group fault-isolation
    boundary. On a raising sink it just runs [f], as
    {!Tc_support.Diagnostic.guard} does, and takes no snapshot of the
    checker state. *)
val protect :
  state ->
  stage:string ->
  loc:Loc.t ->
  recover:(unit -> 'a) ->
  (unit -> 'a) ->
  'a
