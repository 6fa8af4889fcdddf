(** The run-time tag dispatch baseline (paper §3, the SML/NJ-equality
    approach): methods compile to dispatchers that branch on the dynamic
    type tag of a designated argument. Return-type overloading (the
    paper's [read]) is rejected at compile time in user code; library code
    compiled leniently gets a run-time failure stub instead. *)

open Tc_support
module Class_env = Tc_types.Class_env
module Kernel = Tc_desugar.Kernel
module Core = Tc_core_ir.Core

(** Where a dispatcher finds its type tag. *)
type dispatch =
  | Exact of int    (** argument [i] has exactly the class variable's type *)
  | Buried of int   (** mentioned inside argument [i]; not projectable *)
  | Impossible      (** return-type overloading *)

val dispatch_of : Class_env.t -> Class_env.method_info -> dispatch

(** The dispatch position, or a located error explaining why tag dispatch
    cannot implement the method. *)
val check_dispatchable :
  Class_env.t -> loc:Loc.t -> Class_env.method_info -> int

(** Translate a desugared program under the tag-dispatch strategy.
    Bindings from the prelude (source file ["<prelude>"]) translate
    undispatchable method uses to run-time stubs instead of failing. *)
val translate_program :
  Class_env.t ->
  Kernel.group list ->
  Core.program
