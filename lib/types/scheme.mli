(** Type schemes: quantified {e generic} variables (each carrying its class
    context) over a body type.

    The order of [vars] is significant: it fixes the order of the hidden
    dictionary parameters (paper §6.2, §8.6). *)

open Tc_support

type t = {
  vars : Ty.tyvar list;  (** generic variables, in dictionary order *)
  ty : Ty.t;
}

(** A scheme with no quantified variables. *)
val mono : Ty.t -> t

(** [instantiate ~level s] copies the body with fresh variables (inheriting
    contexts) substituted for the generic ones; returns the fresh variables
    in quantifier order, for dictionary-placeholder insertion. *)
val instantiate : level:int -> t -> Ty.t * Ty.tyvar list

(** The context as (class, quantifier index) pairs, in dictionary order. *)
val context : t -> (Ident.t * int) list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
