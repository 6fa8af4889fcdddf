(** Run-time operation counters: the machine-independent quantities behind
    the paper's §9 performance claims. *)

type t = {
  mutable steps : int;               (** expression evaluations *)
  mutable applications : int;
  mutable dict_constructions : int;  (** MkDict evaluations *)
  mutable dict_fields : int;         (** total fields of constructed dicts *)
  mutable selections : int;          (** Sel evaluations *)
  mutable thunk_forces : int;
  mutable allocations : int;
  mutable prim_calls : int;
  mutable tag_dispatches : int;      (** primTypeTag calls (tag mode) *)
}

val create : unit -> t
val reset : t -> unit

(** Every counter as a (name, value) pair, in declaration order. *)
val pairs : t -> (string * int) list

(** {!pairs} as one JSON object of integers: the [counters] field of
    [mhc profile --json] and of the serve [run] and [stats] responses. *)
val to_json : t -> Tc_obs.Json.t

val pp : Format.formatter -> t -> unit
