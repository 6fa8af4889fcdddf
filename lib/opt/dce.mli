(** Dead-binding elimination: drop top-level bindings unreachable from
    [main] (everything is kept when there is no [main]). *)

val program : Tc_core_ir.Core.program -> Tc_core_ir.Core.program
