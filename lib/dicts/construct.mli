(** Code generation for instance dictionaries (paper §4): one top-level
    binding [d$C$T = \dicts(ctx) -> MkDict [...]] per instance, with
    overloaded dictionaries capturing their sub-dictionaries by partial
    application. *)

open Tc_support
module Class_env = Tc_types.Class_env
module Core = Tc_core_ir.Core

(** Parameter name of the dictionary for [cls] on head variable [i]. *)
val param_name : int -> Ident.t -> Ident.t

(** The instance's dictionary parameters, param-major order. *)
val dict_params : Class_env.inst_info -> (int * Ident.t * Ident.t) list

(** The dictionary body for one instance. *)
val instance_dict_expr :
  Class_env.t -> Layout.strategy -> Class_env.inst_info -> Core.expr

val instance_dict_binding :
  Class_env.t -> Layout.strategy -> Class_env.inst_info -> Core.bind
