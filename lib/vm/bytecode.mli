(** The flat bytecode targeted by {!Compile} and executed by {!Vm}:
    closure-converted protos with explicit capture lists, a constant pool,
    a global slot table, and explicit [MKDICT]/[DICTSEL]/[TAILCALL]
    instructions. Dictionaries are contiguous slot arrays: construction is
    one allocation, selection one indexed load (§9's cost model). *)

open Tc_support
module Ast = Tc_syntax.Ast
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval

type capture =
  | Cap_local of int
  | Cap_env of int

type switch = {
  sw_scrut : int;  (** local slot stashing the forced scrutinee *)
  sw_tags : int array;
      (** constructor tag ([rc_tag]) → target pc; tags past the end and
          constructors without an alternative go to [sw_default] *)
  sw_cons : (Ident.t * int) array;
      (** constructor name → target pc, as written (for disassembly) *)
  sw_lits : (Ast.lit * int) array;  (** literal → target pc *)
  sw_default : int;  (** target pc of the default alternative, or -1 *)
}

type instr =
  | CONST of int
  | LOCAL of int
  | LOCALV of int
  | ENV of int
  | ENVV of int
  | GLOBAL of int
  | GLOBALV of int
  | CON of Eval.rcon
  | CLOSURE of int
  | DELAY of int
  | STORE of int
  | REC_ALLOC of int
  | REC_SET of int * int
  | FORCE_LOCAL of int
  | JUMP of int
  | IFELSE of int
  | SWITCH of switch
  | FIELD of int * int
  | MKDICT of Core.dict_tag * int
  | DICTSEL of Core.sel_info
  | CALL of int
  | TAILCALL of int
  | APPLY_LOCALS of int
  | RETURN
  | FAIL of string

type proto = {
  p_name : string;
  p_arity : int;
  p_nlocals : int;
  p_captures : capture array;
  p_code : instr array;
}

type ginit =
  | Gproto of int
  | Gprim of int  (** index in [Eval.primitives] *)

type program = {
  protos : proto array;
  consts : Ast.lit array;
  globals : (Ident.t * ginit) array;
  entry : Ident.t option;
}

val find_global : program -> Ident.t -> int option

(** {2 Disassembly} *)

val pp_instr : Format.formatter -> instr -> unit
val pp_proto : Format.formatter -> int -> proto -> unit
val pp_program : Format.formatter -> program -> unit
