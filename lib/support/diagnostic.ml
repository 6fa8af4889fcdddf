(** Compiler diagnostics: located errors, warnings and internal errors.

    Checking code raises an error as the {!Error} exception. Every stage
    reports into a {!Sink.sink} through its recovery boundaries (parser
    resynchronization, per-declaration static analysis, per-binding-group
    inference, a pipeline stage guard), and the sink decides what an
    error does:

    - a {e recovering} sink ({!Sink.create}) records it, and the boundary
      continues with a degraded result, so one pass reports every
      independent problem;
    - a {e raising} sink ({!Sink.raising}) raises it again, so the first
      error aborts the compile (fail-fast). Its boundaries run their body
      bare: every exception passes through untouched.

    The [Bug] severity marks internal compiler errors (ICEs): unexpected
    exceptions converted by a stage guard via {!of_exn}. They render as
    "internal error" and drive the distinct exit code of [mhc check]. *)

type severity = Error | Warning | Bug

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
  hints : string list;
}

exception Error of t

let make ?(hints = []) ~severity ~loc message = { severity; loc; message; hints }

let errorf ?(loc = Loc.none) ?(hints = []) fmt =
  Format.kasprintf
    (fun message -> raise (Error (make ~hints ~severity:Error ~loc message)))
    fmt

let severity_label : severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Bug -> "internal error"

let pp ppf d =
  let label = severity_label d.severity in
  if Loc.is_none d.loc then Fmt.pf ppf "%s: %s" label d.message
  else Fmt.pf ppf "%a: %s: %s" Loc.pp d.loc label d.message;
  List.iter (fun h -> Fmt.pf ppf "@\n  hint: %s" h) d.hints

let to_string d = Fmt.str "%a" pp d

let is_error d = match d.severity with Error | Bug -> true | Warning -> false

(* Bugs sort before errors before warnings at the same location, so the
   most severe problem at a point leads. *)
let severity_rank : severity -> int = function Bug -> 0 | Error -> 1 | Warning -> 2

(** Total order for display: by file, then span start/end, then severity,
    then message. Unlocated diagnostics sort before located ones of the
    same file (they describe the file as a whole). Use with
    [List.stable_sort] so diagnostics at the same point keep issue order. *)
let compare a b =
  let key d =
    ( d.loc.Loc.file,
      (if Loc.is_none d.loc then 0 else 1),
      d.loc.Loc.start_pos.line,
      d.loc.Loc.start_pos.col,
      d.loc.Loc.end_pos.line,
      d.loc.Loc.end_pos.col,
      severity_rank d.severity )
  in
  let c = Stdlib.compare (key a) (key b) in
  if c <> 0 then c else Stdlib.compare a.message b.message

let sort ds = List.stable_sort compare ds

(** Convert an unexpected exception into an ICE diagnostic: "internal error
    in <stage>", located at the enclosing declaration when known. *)
let of_exn ~stage ~loc (exn : exn) : t =
  let detail =
    match exn with
    | Failure m -> m
    | Invalid_argument m -> "invalid argument: " ^ m
    | Not_found -> "Not_found"
    | Stack_overflow -> "stack overflow"
    | Assert_failure (f, l, c) -> Printf.sprintf "assertion failed at %s:%d:%d" f l c
    | Match_failure (f, l, c) -> Printf.sprintf "match failure at %s:%d:%d" f l c
    | e -> Printexc.to_string e
  in
  make ~severity:Bug ~loc
    ~hints:
      [ "this is a bug in the compiler, not an error in your program" ]
    (Printf.sprintf "internal error in %s: %s" stage detail)

(** Diagnostic sink: a mutable accumulator threaded through compilation.
    Collects warnings and — at recovery boundaries — errors, with a
    configurable cap on the number of errors recorded; or, when raising,
    raises the first error instead. *)
module Sink = struct
  type sink = {
    mutable diags : t list;  (* newest first *)
    mutable n_errors : int;  (* errors + bugs recorded *)
    max_errors : int;  (* <= 0 means unlimited *)
    raises : bool;  (* an error raises instead of being recorded *)
  }

  exception Limit_reached

  let create ?(max_errors = 0) () =
    { diags = []; n_errors = 0; max_errors; raises = false }

  let raising () = { diags = []; n_errors = 0; max_errors = 0; raises = true }

  let raises sink = sink.raises

  (** Record a diagnostic. On a raising sink an error is raised as
      {!Error} instead. Raises {!Limit_reached} when recording an error
      would exceed the sink's cap; recovery boundaries must let that
      exception propagate so the whole run stops. *)
  let report sink (d : t) =
    if is_error d then begin
      if sink.raises then raise (Error d);
      if sink.max_errors > 0 && sink.n_errors >= sink.max_errors then
        raise Limit_reached;
      sink.n_errors <- sink.n_errors + 1
    end;
    sink.diags <- d :: sink.diags

  let warn ?(hints = []) sink ~loc fmt =
    Format.kasprintf
      (fun message -> report sink (make ~hints ~severity:Warning ~loc message))
      fmt

  let diagnostics sink = List.rev sink.diags
  let warnings sink = List.filter (fun d -> d.severity = Warning) (diagnostics sink)
  let has_errors sink = sink.n_errors > 0

  (** The first error recorded, in issue order — what fail-fast compilation
      would have raised. *)
  let first_error sink = List.find_opt is_error (diagnostics sink)
end

(** [guard ~sink ~stage ~loc ~recover f] is the universal recovery
    boundary: run [f]; on {!Error} record the diagnostic and return
    [recover ()]; on any other exception (except {!Sink.Limit_reached} and
    [Out_of_memory], which propagate) record an ICE diagnostic for [stage]
    and return [recover ()]. On a raising sink it is just [f ()], so every
    exception passes through untouched. *)
let guard ~sink ~stage ~loc ~(recover : unit -> 'a) (f : unit -> 'a) : 'a =
  if Sink.raises sink then f ()
  else
    try f () with
    | Error d ->
        (* An unlocated diagnostic at least inherits the guard's location,
           so the user learns which declaration it came from. *)
        let d = if Loc.is_none d.loc then { d with loc } else d in
        Sink.report sink d;
        recover ()
    | (Sink.Limit_reached | Out_of_memory) as e -> raise e
    | exn ->
        Sink.report sink (of_exn ~stage ~loc exn);
        recover ()
