(** The backend-independent half of the run-time system: the run-time
    exceptions, constructor descriptors, and — through {!Make} — the one
    primitive table, renderer and set of string conversions that both the
    tree evaluator ({!Eval}) and the bytecode VM interpret. A backend keeps
    only what differs between them: its values, closures, frames,
    laziness and tail calls. *)

open Tc_support
module Core = Tc_core_ir.Core

exception Runtime_error of string

(** The program called [error]. *)
exception User_error of string

(** Pattern-match failure. *)
exception Pattern_fail of string

(** Raise {!Runtime_error} with a formatted message. *)
val runtime : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Raise {!Runtime_error} for a condition the front end or the bytecode
    compiler is supposed to have ruled out (message prefixed ["[BUG] "]). *)
val bug : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Run-time constructor descriptor. *)
type rcon = {
  rc_name : Ident.t;
  rc_arity : int;
  rc_tag : int;
  rc_tycon : Ident.t;
}

type con_table = rcon Ident.Tbl.t

val con_table_of_env : Tc_types.Class_env.t -> con_table

(** Render a float unambiguously (always with '.' or exponent). *)
val float_str : float -> string

(** The tags of [True] and [False] in a constructor table ([-1] for one
    that is not defined): both back ends branch [if] on these rather than
    on the constructor's spelling. *)
val bool_tags : con_table -> int * int

(** What the shared code needs to see of a backend value. *)
type 'thunk view =
  | Int of int
  | Float of float
  | Char of char
  | Str of string              (** internal message strings *)
  | Data of rcon * 'thunk array
  | Dict of Core.dict_tag * int  (** class/type tag and field count *)
  | Fun                        (** closures, partial applications *)

(** A backend: its value representation and the few operations the
    shared runtime uses. [int_arg]/[float_arg]/[char_arg] force a
    primitive's argument and unbox it; [bools] is the state's cached
    [True]/[False] (built by {!Make.bools}), [None] without a prelude. *)
module type BACKEND = sig
  type value
  type thunk
  type prim
  type state

  val force : state -> thunk -> value
  val ready : value -> thunk
  val int : int -> value
  val float : float -> value
  val char : char -> value
  val str : string -> value
  val data : rcon -> thunk array -> value
  val view : value -> thunk view
  val int_arg : state -> thunk -> int
  val float_arg : state -> thunk -> float
  val char_arg : state -> thunk -> char
  val make_prim : string -> int -> (state -> thunk list -> value) -> prim
  val bools : state -> (value * value) option
  val cons : state -> con_table
  val counters : state -> Counters.t
end

module Make (B : BACKEND) : sig
  (** The [True]/[False] values of a constructor table, for a backend
      state's cache; [None] when [Bool] is not defined. *)
  val bools : con_table -> (B.value * B.value) option

  val string_of_char_list : B.state -> B.value -> string
  val char_list_of_string : B.state -> string -> B.value

  (** Render a value, forcing its spine (depth-limited, default 50).
      Lists of characters print as string literals. *)
  val render : ?depth:int -> B.state -> B.value -> string

  (** The primitive table ([primEqInt], [primError], ...). *)
  val primitives : (Ident.t * B.prim) list
end
