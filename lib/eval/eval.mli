(** An environment-based evaluator for the core language, supporting
    call-by-need ([`Lazy], the paper's setting) and call-by-value
    ([`Strict]). Recursive bindings are tied with back-patched thunks and
    dictionary fields are delayed in both modes. All dictionary operations
    are counted ({!Counters}). The primitives, the renderer and the string
    conversions are {!Runtime}'s, shared with the bytecode VM; the
    exceptions and constructor descriptors are re-exported from there. *)

open Tc_support
module Core = Tc_core_ir.Core
module Budget = Tc_resilience.Budget

exception Runtime_error of string

(** The program called [error]. *)
exception User_error of string

(** Pattern-match failure. *)
exception Pattern_fail of string

(** Run-time constructor descriptor. *)
type rcon = Runtime.rcon = {
  rc_name : Ident.t;
  rc_arity : int;
  rc_tag : int;
  rc_tycon : Ident.t;
}

type con_table = Runtime.con_table

val con_table_of_env : Tc_types.Class_env.t -> con_table

type value =
  | VInt of int
  | VFloat of float
  | VChar of char
  | VStr of string                       (** internal message strings *)
  | VData of rcon * thunk array
  | VConPartial of rcon * thunk list     (** unsaturated constructor *)
  | VClosure of env * Ident.t list * Core.expr
  | VDict of Core.dict_tag * thunk array
  | VPrim of prim * thunk list

and thunk = { mutable cell : cell }

and cell =
  | Done of value
  | Todo of env * Core.expr
  | Under_eval

and env = thunk Ident.Map.t

and prim = {
  pr_name : string;
  pr_arity : int;
  pr_fn : state -> thunk list -> value;
}

and state = {
  mode : [ `Lazy | `Strict ];
  cons : con_table;
  counters : Counters.t;  (** [steps] is settled only by {!counters} *)
  profile : Tc_obs.Profile.rt option;  (** per-site dispatch counts *)
  budget : Budget.meter;
      (** unified resource enforcement; exhaustion raises
          {!Tc_resilience.Budget.Exhausted}. Steps here are expression
          evaluations; frames count thunk-forcing depth. *)
  bools : (value * value) option;  (** [True]/[False], built once *)
  true_tag : int;  (** {!Runtime.bool_tags}: what [if] branches on *)
  false_tag : int;
  mutable globals : env;
}

val done_ : value -> thunk

(** The state's counters, with [steps] settled from the budget meter: the
    evaluator charges steps to the meter in batches and does not bump
    [counters.steps] itself, so read the counters through this. *)
val counters : state -> Counters.t

(** Render a float unambiguously (always with '.' or exponent). *)
val float_str : float -> string

val force : state -> thunk -> value
val eval : state -> env -> Core.expr -> value
val apply : state -> value -> thunk -> value

(** {2 Conversions and rendering} *)

val string_of_char_list : state -> value -> string
val char_list_of_string : state -> string -> value

(** Render a value, forcing its spine (depth-limited). *)
val render : ?depth:int -> state -> value -> string

(** The primitive table ([primEqInt], [primError], ...). *)
val primitives : (Ident.t * prim) list

(** {2 Whole programs} *)

(** [profile] attaches a per-site dispatch profile; every [Sel]/[MkDict]
    evaluated is also counted against its compile-time site. [budget]
    (default {!Tc_resilience.Budget.unlimited}) bounds the run; creating
    the state starts its wall clock. *)
val create_state :
  ?mode:[ `Lazy | `Strict ] ->
  ?budget:Budget.t ->
  ?profile:Tc_obs.Profile.rt ->
  con_table ->
  state

(** Install a program's top-level bindings (plus the primitives) into the
    state's global environment; top-level groups stay lazy (CAFs). *)
val load_program : state -> Core.program -> unit

(** Evaluate an expression in the loaded global environment. *)
val eval_expr : state -> Core.expr -> value

(** Run the requested [entry], or the program's [main]. *)
val run : ?entry:Ident.t -> state -> Core.program -> value
