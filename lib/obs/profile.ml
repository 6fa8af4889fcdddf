(** Dispatch-site profiling.

    Every [Core.Sel] and [Core.MkDict] carries a {e site}: a unique id
    minted when the node is created during dictionary conversion, plus the
    source location it was created for. Sites survive optimization (the
    optimizer rebuilds expressions around the same [sel_info]/[dict_tag]
    records) and travel into VM bytecode unchanged, so both backends can
    attribute each runtime selection / dictionary construction to the
    compile-time site that caused it.

    The compile-time side is {!site_table} — the sites present in a final
    core program; the run-time side is {!rt} — per-site hit counts bumped
    by the evaluator and the VM next to the aggregate {!Tc_eval.Counters}
    bumps, so per-site totals sum exactly to the aggregate counters. *)

open Tc_support
module Core = Tc_core_ir.Core

type site_kind = Selection | Construction

let kind_name = function Selection -> "sel" | Construction -> "mkdict"

(** A static dispatch site of a compiled program. *)
type site_info = {
  s_id : int;
  s_kind : site_kind;
  s_class : Ident.t;   (* class whose dictionary is consulted / built *)
  s_detail : string;   (* method or slot label; instance tycon for MkDict *)
  s_loc : Loc.t;
}

(* ------------------------------------------------------------------ *)
(* Compile-time: the site table of a program.                          *)
(* ------------------------------------------------------------------ *)

let site_table (p : Core.program) : site_info list =
  let tbl : (int, site_info) Hashtbl.t = Hashtbl.create 64 in
  let add (info : site_info) =
    if not (Hashtbl.mem tbl info.s_id) then Hashtbl.add tbl info.s_id info
  in
  let rec go (e : Core.expr) =
    (match e with
     | Core.Sel (s, _) ->
         add
           { s_id = s.Core.sel_site.Core.site_id;
             s_kind = Selection;
             s_class = s.Core.sel_class;
             s_detail = s.Core.sel_label;
             s_loc = s.Core.sel_site.Core.site_loc }
     | Core.MkDict (t, _) ->
         add
           { s_id = t.Core.dt_site.Core.site_id;
             s_kind = Construction;
             s_class = t.Core.dt_class;
             s_detail = Ident.text t.Core.dt_tycon;
             s_loc = t.Core.dt_site.Core.site_loc }
     | _ -> ());
    Core.iter_sub go e
  in
  List.iter
    (fun g ->
      List.iter (fun (b : Core.bind) -> go b.Core.b_expr) (Core.binds_of_group g))
    p.Core.p_binds;
  Hashtbl.fold (fun _ i acc -> i :: acc) tbl []
  |> List.sort (fun a b -> compare a.s_id b.s_id)

(* ------------------------------------------------------------------ *)
(* Run-time: per-site hit counts.                                      *)
(* ------------------------------------------------------------------ *)

(** Per-site hit counts for one execution. *)
type rt = {
  sel_counts : (int, int) Hashtbl.t;
  dict_counts : (int, int) Hashtbl.t;
}

let create_rt () : rt =
  { sel_counts = Hashtbl.create 64; dict_counts = Hashtbl.create 64 }

let bump tbl id =
  match Hashtbl.find_opt tbl id with
  | Some n -> Hashtbl.replace tbl id (n + 1)
  | None -> Hashtbl.add tbl id 1

let hit_sel (rt : rt) (s : Core.sel_info) : unit =
  bump rt.sel_counts s.Core.sel_site.Core.site_id

let hit_dict (rt : rt) (t : Core.dict_tag) : unit =
  bump rt.dict_counts t.Core.dt_site.Core.site_id

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)
(* ------------------------------------------------------------------ *)

type entry = { e_site : site_info; e_count : int }

type report = {
  r_sels : entry list;   (* hit selection sites, count desc then id asc *)
  r_dicts : entry list;  (* hit construction sites, same order *)
  r_sel_total : int;     (* equals the aggregate [selections] counter *)
  r_dict_total : int;    (* equals the aggregate [dict_constructions] *)
  r_static_sites : int;  (* distinct sites in the compiled program *)
}

let make ~(sites : site_info list) (rt : rt) : report =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.s_id s) sites;
  let entries kind tbl =
    Hashtbl.fold
      (fun id count acc ->
        let site =
          match Hashtbl.find_opt by_id id with
          | Some s -> s
          | None ->
              (* a site executed but absent from the final program text
                 should be impossible; keep the count honest regardless *)
              { s_id = id; s_kind = kind; s_class = Ident.intern "?";
                s_detail = "<unknown>"; s_loc = Loc.none }
        in
        { e_site = site; e_count = count } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match compare b.e_count a.e_count with
           | 0 -> compare a.e_site.s_id b.e_site.s_id
           | c -> c)
  in
  let total tbl = Hashtbl.fold (fun _ c acc -> acc + c) tbl 0 in
  {
    r_sels = entries Selection rt.sel_counts;
    r_dicts = entries Construction rt.dict_counts;
    r_sel_total = total rt.sel_counts;
    r_dict_total = total rt.dict_counts;
    r_static_sites = List.length sites;
  }

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  if n < 0 then xs else go n xs

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "%8d  #%-4d %a.%s%a" e.e_count e.e_site.s_id Ident.pp
    e.e_site.s_class e.e_site.s_detail
    (fun ppf loc -> if Loc.is_none loc then () else Fmt.pf ppf "  [%a]" Loc.pp loc)
    e.e_site.s_loc

(** Human-readable report: totals plus the hottest [top] sites of each
    kind. *)
let pp_report ?(top = 10) ppf (r : report) =
  Fmt.pf ppf "dispatch profile: %d selections over %d sites, %d dictionary \
              constructions over %d sites (%d static sites)@."
    r.r_sel_total (List.length r.r_sels) r.r_dict_total (List.length r.r_dicts)
    r.r_static_sites;
  if r.r_sels <> [] then begin
    Fmt.pf ppf "top selection sites:@.";
    List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (take top r.r_sels)
  end;
  if r.r_dicts <> [] then begin
    Fmt.pf ppf "top construction sites:@.";
    List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (take top r.r_dicts)
  end

let entry_json (e : entry) : Json.t =
  Json.Obj
    [ ("site", Json.Int e.e_site.s_id);
      ("kind", Json.Str (kind_name e.e_site.s_kind));
      ("class", Json.Str (Ident.text e.e_site.s_class));
      ("label", Json.Str e.e_site.s_detail);
      ("loc",
       if Loc.is_none e.e_site.s_loc then Json.Null
       else Json.Str (Loc.to_string e.e_site.s_loc));
      ("count", Json.Int e.e_count) ]

let report_json ?(top = -1) (r : report) : Json.t =
  Json.Obj
    [ ("totals",
       Json.Obj
         [ ("selections", Json.Int r.r_sel_total);
           ("dict_constructions", Json.Int r.r_dict_total) ]);
      ("static_sites", Json.Int r.r_static_sites);
      ("selection_sites", Json.List (List.map entry_json (take top r.r_sels)));
      ("construction_sites",
       Json.List (List.map entry_json (take top r.r_dicts))) ]

(* ------------------------------------------------------------------ *)
(* Spec profiles: the persisted form of a dispatch profile, consumed   *)
(* by the profile-guided specializer on a later compile.               *)
(* ------------------------------------------------------------------ *)

type spec_site = {
  ss_id : int;
  ss_kind : site_kind;
  ss_class : string;
  ss_detail : string;
  ss_loc : string;  (* rendered location; "" when none *)
  ss_count : int;
}

type spec = spec_site list

let spec_of_entry (e : entry) : spec_site =
  {
    ss_id = e.e_site.s_id;
    ss_kind = e.e_site.s_kind;
    ss_class = Ident.text e.e_site.s_class;
    ss_detail = e.e_site.s_detail;
    ss_loc =
      (if Loc.is_none e.e_site.s_loc then ""
       else Loc.to_string e.e_site.s_loc);
    ss_count = e.e_count;
  }

let spec_of_report (r : report) : spec =
  List.map spec_of_entry (r.r_sels @ r.r_dicts)

let spec_json (s : spec) : Json.t =
  Json.Obj
    [ ("version", Json.Int 1);
      ("kind", Json.Str "mhc-spec-profile");
      ("sites",
       Json.List
         (List.map
            (fun ss ->
              Json.Obj
                [ ("site", Json.Int ss.ss_id);
                  ("kind", Json.Str (kind_name ss.ss_kind));
                  ("class", Json.Str ss.ss_class);
                  ("label", Json.Str ss.ss_detail);
                  ("loc",
                   if ss.ss_loc = "" then Json.Null else Json.Str ss.ss_loc);
                  ("count", Json.Int ss.ss_count) ])
            s)) ]

let site_of_json (j : Json.t) : (spec_site, string) result =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  match (int "site", str "kind", int "count") with
  | Some id, Some kind, Some count -> (
      match kind with
      | "sel" | "mkdict" ->
          Ok
            {
              ss_id = id;
              ss_kind = (if kind = "sel" then Selection else Construction);
              ss_class = Option.value ~default:"?" (str "class");
              ss_detail = Option.value ~default:"" (str "label");
              ss_loc = Option.value ~default:"" (str "loc");
              ss_count = count;
            }
      | k -> Error (Printf.sprintf "unknown site kind %S" k))
  | _ ->
      Error
        "site entry needs integer \"site\", string \"kind\" and integer \
         \"count\""

let sites_of_json (j : Json.t) : (spec, string) result =
  match j with
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          match (acc, site_of_json item) with
          | Error _, _ -> acc
          | _, Error e -> Error e
          | Ok ss, Ok s -> Ok (s :: ss))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "expected a JSON array of sites"

(** Accepts both the compact [--emit-spec] form ([{"sites": [...]}]) and
    the full [mhc profile --json] report
    ([{"selection_sites": [...], "construction_sites": [...]}]). *)
let spec_of_json (j : Json.t) : (spec, string) result =
  match
    ( Json.member "sites" j,
      Json.member "selection_sites" j,
      Json.member "construction_sites" j )
  with
  | Some sites, _, _ -> sites_of_json sites
  | None, Some sels, Some dicts -> (
      match (sites_of_json sels, sites_of_json dicts) with
      | Ok a, Ok b -> Ok (a @ b)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | _ ->
      Error
        "not a dispatch profile: expected a \"sites\" array or \
         \"selection_sites\"/\"construction_sites\""

let spec_digest (s : spec) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun ss ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%s|%s|%s|%d\n" ss.ss_id (kind_name ss.ss_kind)
           ss.ss_class ss.ss_detail ss.ss_loc ss.ss_count))
    s;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Remapping a loaded spec onto the current program's site table.

   Site ids are deterministic for identical source + options in a fresh
   process, but a profile may have been taken against a slightly different
   compile (other passes applied first, an edited file). So matching is
   descriptor-first — (kind, class, label, loc) identifies a site across
   compiles, with counts summed when desugaring duplicates a location —
   and falls back to the raw id only for sites whose descriptor is absent
   from the profile. *)
let descriptor ~kind ~cls ~detail ~loc =
  kind ^ "|" ^ cls ^ "|" ^ detail ^ "|" ^ loc

let counts_for (s : spec) (sites : site_info list) : (int * int) list =
  let by_desc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let by_id : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ss ->
      let d =
        descriptor ~kind:(kind_name ss.ss_kind) ~cls:ss.ss_class
          ~detail:ss.ss_detail ~loc:ss.ss_loc
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt by_desc d) in
      Hashtbl.replace by_desc d (prev + ss.ss_count);
      Hashtbl.replace by_id ss.ss_id ss.ss_count)
    s;
  List.filter_map
    (fun (si : site_info) ->
      let d =
        descriptor ~kind:(kind_name si.s_kind)
          ~cls:(Ident.text si.s_class) ~detail:si.s_detail
          ~loc:
            (if Loc.is_none si.s_loc then "" else Loc.to_string si.s_loc)
      in
      match Hashtbl.find_opt by_desc d with
      | Some n when n > 0 -> Some (si.s_id, n)
      | Some _ -> None
      | None -> (
          match Hashtbl.find_opt by_id si.s_id with
          | Some n when n > 0 -> Some (si.s_id, n)
          | _ -> None))
    sites
