(** A stack-based interpreter for {!Bytecode}, with the same observable
    behaviour and {!Tc_eval.Counters} dictionary accounting as the tree
    evaluator. Fully iterative: deep non-tail recursion hits the frame
    budget and every exhausted resource raises the same classified
    {!Tc_resilience.Budget.Exhausted} the tree evaluator uses. On this
    backend a budget's [steps] are {e instructions} and [frames] is the
    explicit frame-stack depth. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval
module Counters = Tc_eval.Counters
module Budget = Tc_resilience.Budget

type value =
  | VInt of int
  | VFloat of float
  | VChar of char
  | VStr of string
  | VData of Eval.rcon * slot array
  | VConPartial of Eval.rcon * slot list
  | VClosure of closure
  | VPap of closure * slot list
  | VDict of Core.dict_tag * slot array
  | VPrim of prim * slot list

and closure = { c_proto : Bytecode.proto; c_env : slot array }

and slot = { mutable cell : cell }

and cell =
  | Ready of value
  | Delay of closure
  | Busy

and prim = {
  pr_name : string;
  pr_arity : int;
  pr_fn : state -> slot list -> value;
}

and state

(** The state's counters, with [steps] settled from the budget meter
    (the loop charges steps to the meter, not to the counters). *)
val counters : state -> Counters.t

(** The state's budget meter (for post-run checks such as the output
    cap). *)
val meter : state -> Budget.meter

(** [create_state ?budget ?profile cons]: [budget] bounds the run
    (steps = instructions here; a budget without a frame bound still gets
    the default [1_000_000]-frame stack bound, because the explicit frame
    stack would otherwise grow without limit); [profile] attaches a
    per-site dispatch profile counting every [MKDICT]/[DICTSEL] against
    its compile-time site. Creating the state starts the budget's wall
    clock. *)
val create_state :
  ?budget:Budget.t ->
  ?profile:Tc_obs.Profile.rt ->
  Eval.con_table ->
  state

(** Load [program] and force its entry point ([?entry], the program's
    [main] otherwise). Raises the {!Tc_eval.Eval} exceptions. *)
val run : ?entry:Ident.t -> state -> Bytecode.program -> value

(** Force a slot to a value (runs the machine as needed). *)
val force : state -> slot -> value

(** Render a value with the renderer the tree evaluator uses
    ({!Tc_eval.Runtime.Make}; forces the spine, lists of characters print
    as strings). *)
val render : ?depth:int -> state -> value -> string
