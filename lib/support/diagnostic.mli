(** Compiler diagnostics: located errors, warnings and internal errors.

    Checking code raises errors as the {!Error} exception; recovery
    boundaries catch it and report the diagnostic to a {!Sink.sink}. A
    recovering sink records it, so one compilation pass can report every
    independent problem; a raising sink raises it again, which makes the
    same pass fail-fast. The [Bug] severity marks internal compiler errors
    (ICEs) produced by stage guards from unexpected exceptions. *)

type severity = Error | Warning | Bug

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
  hints : string list;
}

exception Error of t

val make : ?hints:string list -> severity:severity -> loc:Loc.t -> string -> t

(** [errorf ?loc fmt ...] raises {!Error} with a formatted message. *)
val errorf : ?loc:Loc.t -> ?hints:string list -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val severity_label : severity -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [Error] or [Bug] (both fail a compile); [Warning] does not. *)
val is_error : t -> bool

(** Total order for display: file, then span, then severity, then message.
    Stable-sorting with this keeps issue order for ties. *)
val compare : t -> t -> int

(** Stable sort by {!compare}. *)
val sort : t list -> t list

(** Convert an unexpected exception into an ICE ([Bug]) diagnostic:
    "internal error in <stage>", carrying the enclosing declaration's
    location when known. *)
val of_exn : stage:string -> loc:Loc.t -> exn -> t

(** Diagnostic sink: a mutable accumulator threaded through compilation.
    Collects warnings and, at recovery boundaries, errors — with a
    configurable cap on recorded errors — or, when raising, raises the
    first error instead of recording it. *)
module Sink : sig
  type sink

  (** Raised by {!report} when recording an error would exceed the sink's
      error cap. Recovery boundaries must let it propagate. *)
  exception Limit_reached

  (** [create ?max_errors ()] makes a fresh recovering sink.
      [max_errors <= 0] (the default) means unlimited. *)
  val create : ?max_errors:int -> unit -> sink

  (** [raising ()] makes a fresh fail-fast sink: it records warnings, and
      {!report} raises an error as {!Error}. {!guard} on it just runs its
      body. *)
  val raising : unit -> sink

  (** Whether the sink is a {!raising} one. *)
  val raises : sink -> bool

  (** Record a diagnostic; raises {!Limit_reached} at the error cap. On a
      raising sink an error is raised as {!Error} instead. *)
  val report : sink -> t -> unit

  val warn :
    ?hints:string list ->
    sink ->
    loc:Loc.t ->
    ('a, Format.formatter, unit, unit) format4 ->
    'a

  (** All diagnostics in the order they were issued. *)
  val diagnostics : sink -> t list

  (** Warnings only, in issue order. *)
  val warnings : sink -> t list

  val has_errors : sink -> bool

  (** The first error recorded — what fail-fast compilation would have
      raised. *)
  val first_error : sink -> t option
end

(** [guard ~sink ~stage ~loc ~recover f]: run [f]; on {!Error} record it
    and return [recover ()]; on any other exception (except
    {!Sink.Limit_reached} and [Out_of_memory]) record an ICE for [stage]
    at [loc] and return [recover ()]. The universal recovery boundary. On
    a raising sink it is just [f ()]: no location is inherited, nothing is
    wrapped as an ICE, and every exception passes through untouched. *)
val guard :
  sink:Sink.sink ->
  stage:string ->
  loc:Loc.t ->
  recover:(unit -> 'a) ->
  (unit -> 'a) ->
  'a
