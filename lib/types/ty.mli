(** Types with mutable unification variables.

    Following the paper (§5), every uninstantiated type variable carries a
    {e context}: the set of classes its instantiation must belong to.
    Variables also carry a [level] for let-generalization (generalized
    variables get {!generic_level}) and a [read_only] flag implementing
    §8.6 user-supplied signatures. *)

open Tc_support

type t =
  | TVar of tyvar
  | TCon of Tycon.t * t list  (** always saturated *)

and tyvar = { tv_id : int; mutable tv_repr : repr }

and repr =
  | Unbound of unbound
  | Link of t

and unbound = {
  mutable level : int;
  mutable context : Ident.t list;  (** sorted, duplicate-free class names *)
  read_only : bool;
}

(** The level marking generalized (quantified) variables. *)
val generic_level : int

val fresh_var :
  ?context:Ident.t list -> ?read_only:bool -> level:int -> unit -> tyvar

val fresh : ?context:Ident.t list -> ?read_only:bool -> level:int -> unit -> t

(** Class-context sets, represented as sorted ident lists. *)
module Context : sig
  type t = Ident.t list

  val empty : t
  val singleton : Ident.t -> t
  val add : Ident.t -> t -> t
  val union : t -> t -> t
  val mem : Ident.t -> t -> bool
  val of_list : Ident.t list -> t
  val pp : Format.formatter -> t -> unit
end

(** Follow links to the representative, with path compression. *)
val prune : t -> t

(** A copy with every link followed, so reading it never writes (the
    form in which types are shared between domains). *)
val zonk : t -> t

(** The unbound payload of a variable; fails if it is a link. *)
val unbound_exn : tyvar -> unbound

val is_generic : tyvar -> bool

(** {2 Constructors} *)

val int : t
val float : t
val char : t
val unit : t
val arrow : t -> t -> t
val list : t -> t

(** [tuple []] is unit; [tuple [t]] is [t]. *)
val tuple : t list -> t

val arrows : t list -> t -> t

(** Split [a -> b -> r] into ([a; b], r). *)
val unfold_arrow : t -> t list * t

(** Free (unbound) variables, in first-occurrence order. *)
val free_vars : t -> tyvar list

val occurs : tyvar -> t -> bool

(** {2 Printing} *)

(** Assigns display names 'a', 'b', ... to variables; share one namer to
    print several types consistently. *)
module Namer : sig
  type t

  val create : unit -> t
  val name : t -> tyvar -> string
end

val pp_with : ?namer:Namer.t -> int -> Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Render with the contexts attached to its variables, e.g.
    ["(Eq a, Num b) => a -> b"]. *)
val pp_qualified : Format.formatter -> t -> unit

val to_string_qualified : t -> string
