(** Dispatch-site profiling: attribute each runtime dictionary selection /
    construction to the compile-time site that produced the [Sel]/[MkDict]
    node. Sites survive optimization and VM compilation, so the tree
    evaluator and the VM report identical per-site counts, and per-site
    totals sum exactly to the aggregate {!Tc_eval.Counters}. *)

open Tc_support
module Core = Tc_core_ir.Core

type site_kind = Selection | Construction

val kind_name : site_kind -> string

(** A static dispatch site of a compiled program. *)
type site_info = {
  s_id : int;
  s_kind : site_kind;
  s_class : Ident.t;
  s_detail : string;  (** method/slot label; instance tycon for MkDict *)
  s_loc : Loc.t;
}

(** All distinct sites of a program, ascending id. *)
val site_table : Core.program -> site_info list

(** {2 Run-time counts} *)

(** Per-site hit counts for one execution. *)
type rt = {
  sel_counts : (int, int) Hashtbl.t;
  dict_counts : (int, int) Hashtbl.t;
}

val create_rt : unit -> rt

(** Bump the selection count of the site carried by [sel_info]; called by
    both backends next to the aggregate counter bump. *)
val hit_sel : rt -> Core.sel_info -> unit

val hit_dict : rt -> Core.dict_tag -> unit

(** {2 Reports} *)

type entry = { e_site : site_info; e_count : int }

type report = {
  r_sels : entry list;   (** hit selection sites, count desc then id asc *)
  r_dicts : entry list;
  r_sel_total : int;     (** equals the aggregate [selections] counter *)
  r_dict_total : int;    (** equals the aggregate [dict_constructions] *)
  r_static_sites : int;  (** distinct sites in the compiled program *)
}

val make : sites:site_info list -> rt -> report

(** Totals plus the hottest [top] (default 10) sites of each kind. *)
val pp_report : ?top:int -> Format.formatter -> report -> unit

(** JSON report; [top] limits each site list (default: all). *)
val report_json : ?top:int -> report -> Json.t

(** {2 Spec profiles}

    The persisted form of a dispatch profile — what [mhc profile
    --emit-spec] writes and [mhc run --spec-profile] reads back to drive
    profile-guided specialization. Each site keeps its id, descriptor
    (kind, class, method/tycon label, rendered location) and hit count;
    the descriptor makes remapping robust when the consuming compile
    minted different site ids than the profiled one. *)

type spec_site = {
  ss_id : int;
  ss_kind : site_kind;
  ss_class : string;
  ss_detail : string;
  ss_loc : string;  (** rendered location; [""] when none *)
  ss_count : int;
}

type spec = spec_site list

(** Every hit site of a run, selections then constructions. *)
val spec_of_report : report -> spec

val spec_json : spec -> Json.t

(** Accepts both the compact [--emit-spec] form and the full
    [mhc profile --json] report. *)
val spec_of_json : Json.t -> (spec, string) result

(** Content digest, for compile-cache keys. *)
val spec_digest : spec -> string

(** [counts_for spec sites] attributes profiled hit counts to the sites
    of the current program: descriptor-first matching (counts summed per
    descriptor), raw-id fallback. Sites with no profiled hits are
    omitted. *)
val counts_for : spec -> site_info list -> (int * int) list
