(** Structured compile-time tracing.

    The checker's operational story — context reduction (§5), placeholder
    creation and resolution (§6.3), defaulting — and the optimizer's
    per-pass effect are reported as a stream of typed events. A [sink]
    receives events as they happen; [none] (the default everywhere)
    disables tracing. Event payloads are only constructed when a sink is
    installed: emitters pass a thunk to {!emit}, so the disabled path is a
    single [match] on an option. *)

open Tc_support

type event =
  | Context_reduction of {
      cls : Ident.t;       (* constraint being reduced *)
      ty : string;         (* rendered constructor type it lands on *)
      loc : Loc.t;
    }
  | Instance_lookup of {
      cls : Ident.t;
      tycon : Ident.t;
      found : bool;
      loc : Loc.t;
    }
  | Placeholder_created of {
      id : int;            (* Core hole id *)
      kind : string;       (* "dict C" | "method m" | "recursive f" *)
      ty : string;         (* rendered qualified type at creation *)
      loc : Loc.t;
    }
  | Placeholder_resolved of {
      id : int;
      via : string;        (* which §6.3 case applied *)
      detail : string;
      loc : Loc.t;
    }
  | Defaulting of {
      ty : string;                (* rendered ambiguous qualified type *)
      chosen : string option;     (* the defaulted type, if any applied *)
      loc : Loc.t;
    }
  | Opt_pass of {
      pass : string;
      size_before : int;
      size_after : int;
      sels_before : int;          (* static Sel node counts *)
      sels_after : int;
      dicts_before : int;         (* static MkDict node counts *)
      dicts_after : int;
    }
  | Spec_report of {
      clones : int;               (* type-specific clones minted *)
      call_sites : int;           (* calls redirected to clones *)
      hot_binds : int;            (* overloaded bindings deemed hot *)
      cold_binds : int;           (* left on dictionary dispatch *)
      budget_skips : int;         (* clones refused by the budget *)
      size_before : int;
      size_after : int;
      profile_guided : bool;      (* hotness from a loaded profile? *)
    }

type sink = { emit : event -> unit }

type t = sink option

let none : t = None

let collector () : t * (unit -> event list) =
  let buf = ref [] in
  (Some { emit = (fun e -> buf := e :: !buf) }, fun () -> List.rev !buf)

let is_on (t : t) = Option.is_some t

let emit (t : t) (f : unit -> event) : unit =
  match t with None -> () | Some s -> s.emit (f ())

(** The source location an event is anchored to; [None] for whole-program
    events ([Opt_pass]). *)
let loc_of_event = function
  | Context_reduction { loc; _ }
  | Instance_lookup { loc; _ }
  | Placeholder_created { loc; _ }
  | Placeholder_resolved { loc; _ }
  | Defaulting { loc; _ } -> Some loc
  | Opt_pass _ | Spec_report _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let pp_loc ppf (loc : Loc.t) =
  if Loc.is_none loc then () else Fmt.pf ppf "  [%a]" Loc.pp loc

let pp_event ppf (e : event) =
  match e with
  | Context_reduction { cls; ty; loc } ->
      Fmt.pf ppf "context-reduction: %a %s%a" Ident.pp cls ty pp_loc loc
  | Instance_lookup { cls; tycon; found; loc } ->
      Fmt.pf ppf "instance-lookup: %a %a -> %s%a" Ident.pp cls Ident.pp tycon
        (if found then "found" else "missing")
        pp_loc loc
  | Placeholder_created { id; kind; ty; loc } ->
      Fmt.pf ppf "placeholder %d created: %s : %s%a" id kind ty pp_loc loc
  | Placeholder_resolved { id; via; detail; loc } ->
      Fmt.pf ppf "placeholder %d resolved: %s%s%a" id via
        (if detail = "" then "" else " (" ^ detail ^ ")")
        pp_loc loc
  | Defaulting { ty; chosen; loc } ->
      Fmt.pf ppf "defaulting: %s -> %s%a" ty
        (match chosen with Some t -> t | None -> "<failed>")
        pp_loc loc
  | Opt_pass { pass; size_before; size_after; sels_before; sels_after;
               dicts_before; dicts_after } ->
      Fmt.pf ppf
        "opt-pass %s: size %d -> %d, sels %d -> %d, dicts %d -> %d" pass
        size_before size_after sels_before sels_after dicts_before dicts_after
  | Spec_report { clones; call_sites; hot_binds; cold_binds; budget_skips;
                  size_before; size_after; profile_guided } ->
      Fmt.pf ppf
        "specialise%s: %d clone(s) over %d call site(s), %d hot / %d cold \
         binding(s), %d budget skip(s), size %d -> %d (growth %.2fx)"
        (if profile_guided then " (profile-guided)" else "")
        clones call_sites hot_binds cold_binds budget_skips size_before
        size_after
        (if size_before = 0 then 1.
         else float_of_int size_after /. float_of_int size_before)

let loc_json (loc : Loc.t) : Json.t =
  if Loc.is_none loc then Json.Null else Json.Str (Loc.to_string loc)

let event_json (e : event) : Json.t =
  match e with
  | Context_reduction { cls; ty; loc } ->
      Json.Obj
        [ ("event", Json.Str "context-reduction");
          ("class", Json.Str (Ident.text cls));
          ("type", Json.Str ty);
          ("loc", loc_json loc) ]
  | Instance_lookup { cls; tycon; found; loc } ->
      Json.Obj
        [ ("event", Json.Str "instance-lookup");
          ("class", Json.Str (Ident.text cls));
          ("tycon", Json.Str (Ident.text tycon));
          ("found", Json.Bool found);
          ("loc", loc_json loc) ]
  | Placeholder_created { id; kind; ty; loc } ->
      Json.Obj
        [ ("event", Json.Str "placeholder-created");
          ("id", Json.Int id);
          ("kind", Json.Str kind);
          ("type", Json.Str ty);
          ("loc", loc_json loc) ]
  | Placeholder_resolved { id; via; detail; loc } ->
      Json.Obj
        [ ("event", Json.Str "placeholder-resolved");
          ("id", Json.Int id);
          ("via", Json.Str via);
          ("detail", Json.Str detail);
          ("loc", loc_json loc) ]
  | Defaulting { ty; chosen; loc } ->
      Json.Obj
        [ ("event", Json.Str "defaulting");
          ("type", Json.Str ty);
          ("chosen",
           match chosen with Some t -> Json.Str t | None -> Json.Null);
          ("loc", loc_json loc) ]
  | Opt_pass { pass; size_before; size_after; sels_before; sels_after;
               dicts_before; dicts_after } ->
      Json.Obj
        [ ("event", Json.Str "opt-pass");
          ("pass", Json.Str pass);
          ("size_before", Json.Int size_before);
          ("size_after", Json.Int size_after);
          ("sels_before", Json.Int sels_before);
          ("sels_after", Json.Int sels_after);
          ("dicts_before", Json.Int dicts_before);
          ("dicts_after", Json.Int dicts_after) ]
  | Spec_report { clones; call_sites; hot_binds; cold_binds; budget_skips;
                  size_before; size_after; profile_guided } ->
      Json.Obj
        [ ("event", Json.Str "spec-report");
          ("clones", Json.Int clones);
          ("call_sites", Json.Int call_sites);
          ("hot_binds", Json.Int hot_binds);
          ("cold_binds", Json.Int cold_binds);
          ("budget_skips", Json.Int budget_skips);
          ("size_before", Json.Int size_before);
          ("size_after", Json.Int size_after);
          ("profile_guided", Json.Bool profile_guided) ]

let events_json (es : event list) : Json.t = Json.List (List.map event_json es)
