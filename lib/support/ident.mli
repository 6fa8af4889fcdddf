(** Interned identifiers.

    Identifiers are interned so equality and comparison are O(1), and
    generated names (dictionary variables, specialized clones, ...) can be
    minted without collision. *)

type t = {
  id : int;      (** unique stamp *)
  text : string; (** user-visible spelling *)
}

(** One compile's own names and gensyms. Its stamps are minted in
    creation order from a fixed base above every process-wide stamp (the
    names of module initialisation and prelude snapshot builds), so they
    do not depend on what the process compiled before. *)
type scope

val scope : unit -> scope

(** A copy to continue a finished compile on, leaving the original (which
    cached artifacts share across domains) unwritten. *)
val copy : scope -> scope

(** [with_scope s f] runs [f] with [s] as the calling domain's scope. *)
val with_scope : scope -> (unit -> 'a) -> 'a

(** [unscoped f] runs [f] interning process-wide. *)
val unscoped : (unit -> 'a) -> 'a

(** [intern s] returns the identifier spelled [s]: the current scope's,
    else the process-wide one, else a new one (in the scope, if any). *)
val intern : string -> t

(** [gensym base] mints an identifier distinct from every other identifier
    of its scope and the process, with a spelling derived from [base]. *)
val gensym : string -> t

(** [snapshot ()] lists the process-wide table (spelling, stamp pairs,
    sorted) and its stamp counter; scope names are not included. *)
val snapshot : unit -> (string * int) list * int

(** The number of names in the process-wide table: what a long-running
    server must keep from growing with the requests it answers. *)
val interned : unit -> int

val text : t -> string
val stamp : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Print with the unique stamp (for IR dumps where spellings may repeat). *)
val pp_unique : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
