(** Monotonic counters for minting unique integers. Distinct supplies are
    independent; each is safe to draw from on several domains at once. *)

type t

val create : ?start:int -> unit -> t

(** Return the next integer, advancing the supply. *)
val next : t -> int

(** The value [next] would return, without advancing. *)
val peek : t -> int
