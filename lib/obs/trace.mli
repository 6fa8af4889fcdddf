(** Structured compile-time tracing: inference events (context reduction,
    instance lookup, placeholder creation/resolution, defaulting) and
    optimizer per-pass deltas, delivered to an optional sink. With no sink
    installed ({!none}) emission is a single option check and event
    payloads are never built. *)

open Tc_support

type event =
  | Context_reduction of { cls : Ident.t; ty : string; loc : Loc.t }
  | Instance_lookup of {
      cls : Ident.t;
      tycon : Ident.t;
      found : bool;
      loc : Loc.t;
    }
  | Placeholder_created of {
      id : int;
      kind : string;
      ty : string;
      loc : Loc.t;
    }
  | Placeholder_resolved of {
      id : int;
      via : string;
      detail : string;
      loc : Loc.t;
    }
  | Defaulting of { ty : string; chosen : string option; loc : Loc.t }
  | Opt_pass of {
      pass : string;
      size_before : int;
      size_after : int;
      sels_before : int;
      sels_after : int;
      dicts_before : int;
      dicts_after : int;
    }
  | Spec_report of {
      clones : int;
      call_sites : int;
      hot_binds : int;
      cold_binds : int;
      budget_skips : int;
      size_before : int;
      size_after : int;
      profile_guided : bool;
    }  (** the specializer's typed report (see {!Tc_opt.Specialise}) *)

type sink = { emit : event -> unit }

(** A trace target: [None] means tracing is off. *)
type t = sink option

val none : t

(** A sink that accumulates events; the second component returns them in
    emission order. *)
val collector : unit -> t * (unit -> event list)

val is_on : t -> bool

(** [emit t f] delivers [f ()] if a sink is installed; [f] is not called
    otherwise. *)
val emit : t -> (unit -> event) -> unit

(** The event's source anchor; [None] for whole-program events. *)
val loc_of_event : event -> Loc.t option

val pp_event : Format.formatter -> event -> unit
val event_json : event -> Json.t
val events_json : event list -> Json.t
