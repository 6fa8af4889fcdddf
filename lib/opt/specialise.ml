(** Specialization: type-specific clones of overloaded functions (paper §9:
    "It is possible to completely eliminate dynamic method dispatch within
    an overloaded function at specific overloadings by creating type
    specific clones").

    A call [f d1 .. dk a ..] where [f] is a top-level overloaded binding
    and every [di] is a constant dictionary expression (built only from
    top-level names) is rewritten to [f$T a ..], where the clone [f$T] is
    [f]'s body with the dictionaries substituted. Clones are memoized per
    dictionary tuple and processed to a fixed point, so recursive calls
    collapse onto the clone. A final {!Simplify} pass then removes the
    [Sel]/[MkDict] indirections — together with known-dictionary inlining
    this eliminates dictionary operations from fully-specializable code. *)

open Tc_support
module Core = Tc_core_ir.Core

(* ------------------------------------------------------------------ *)
(* Policy and report.                                                  *)
(* ------------------------------------------------------------------ *)

type policy = {
  hot_counts : (int * int) list option;
      (* profiled (site id, hit count) pairs for the program being
         specialized; [None] = static mode, every overloaded binding is
         hot. Dependency note: this library sits below [Tc_obs], so the
         profile arrives pre-remapped as plain pairs. *)
  hot_threshold : int;
      (* an overloaded binding is hot iff the profiled hits over the
         dispatch sites in its body sum to at least this *)
  max_clones : int;   (* <= 0 disables cloning entirely (identity) *)
  max_growth : float; (* size cap as a multiple of the input; <= 0 = off *)
}

let default_policy =
  { hot_counts = None; hot_threshold = 1; max_clones = 2000; max_growth = 0. }

type report = {
  sr_clones : int;        (* type-specific clones minted *)
  sr_call_sites : int;    (* calls redirected to clones *)
  sr_hot_binds : int;     (* overloaded bindings deemed hot *)
  sr_cold_binds : int;    (* overloaded bindings left on dictionaries *)
  sr_budget_skips : int;  (* clones refused by max_clones/max_growth *)
  sr_size_before : int;
  sr_size_after : int;
  sr_sels_before : int;   (* static Sel node counts *)
  sr_sels_after : int;
  sr_dicts_before : int;  (* static MkDict node counts *)
  sr_dicts_after : int;
  sr_profile_guided : bool;
}

let growth (r : report) : float =
  if r.sr_size_before = 0 then 1.
  else float_of_int r.sr_size_after /. float_of_int r.sr_size_before

type ctx = {
  policy : policy;
  (* top-level overloaded bindings: name -> (dict params, other params, body) *)
  overloaded : (Ident.t list * Ident.t list * Core.expr) Ident.Tbl.t;
  (* the hot subset of [overloaded] — the only bindings worth cloning *)
  hot : unit Ident.Tbl.t;
  (* top-level dictionary bindings with literal MkDict bodies *)
  dict_bodies : Core.expr Ident.Tbl.t;
  top_names : unit Ident.Tbl.t;
  (* memo: (f, rendered dicts) -> clone name *)
  memo : (string, Ident.t) Hashtbl.t;
  mutable new_binds : Core.bind list;  (* clones, most recent first *)
  mutable clone_count : int;
  mutable call_sites : int;    (* calls redirected to clones *)
  mutable budget_skips : int;  (* clone mints refused by the budget *)
  mutable est_size : int;      (* input size + estimated clone growth *)
  size_allowance : int;        (* max_int when max_growth is off *)
}

(** Is [e] closed except for top-level names? *)
let is_constant ctx (e : Core.expr) : bool =
  Ident.Set.for_all (fun v -> Ident.Tbl.mem ctx.top_names v) (Core.free_vars e)

let key_of ctx f dicts =
  Fmt.str "%a|%a" Ident.pp f
    (Fmt.list ~sep:(Fmt.any ";") Tc_core_ir.Core_pp.pp)
    dicts
  |> fun s -> ignore ctx; s

let binders_of = Inner_entry.binders_of

(** Map over subexpressions carrying the set of locally-bound names (a
    conservative union per node: precise enough to avoid rewriting shadowed
    occurrences, the only soundness requirement here). *)
let map_sub_scoped (f : Ident.Set.t -> Core.expr -> Core.expr)
    (bound : Ident.Set.t) (e : Core.expr) : Core.expr =
  match e with
  | Core.Case (s, alts, d) ->
      Core.Case
        ( f bound s,
          List.map
            (fun (a : Core.alt) ->
              let bound' =
                List.fold_left (fun s' v -> Ident.Set.add v s') bound a.alt_vars
              in
              { a with alt_body = f bound' a.alt_body })
            alts,
          Option.map (f bound) d )
  | _ ->
      let bound' =
        List.fold_left (fun s v -> Ident.Set.add v s) bound (binders_of e)
      in
      Core.map_sub (f bound') e

let rec specialise_expr ctx ?(bound = Ident.Set.empty) (e : Core.expr) :
    Core.expr =
  let e = map_sub_scoped (fun b e' -> specialise_expr ctx ~bound:b e') bound e in
  match Core.unfold_app e [] with
  | Core.Var f, args
    when Ident.Tbl.mem ctx.hot f && not (Ident.Set.mem f bound) ->
      let dict_params, _, _ = Ident.Tbl.find ctx.overloaded f in
      let k = List.length dict_params in
      if List.length args >= k then begin
        let dicts = List.filteri (fun i _ -> i < k) args in
        let rest = List.filteri (fun i _ -> i >= k) args in
        if List.for_all (is_constant ctx) dicts then
          match clone_for ctx f dicts with
          | Some clone ->
              ctx.call_sites <- ctx.call_sites + 1;
              Core.apps (Core.Var clone) rest
          | None -> e
        else e
      end
      else e
  | _ -> e

and clone_for ctx (f : Ident.t) (dicts : Core.expr list) : Ident.t option =
  let key = key_of ctx f dicts in
  match Hashtbl.find_opt ctx.memo key with
  | Some name -> Some name
  | None ->
      let dict_params, other_params, body = Ident.Tbl.find ctx.overloaded f in
      (* the budget: a clone count cap plus an (estimated, checked before
         the mint so recursion through the memo stays simple) code-growth
         cap relative to the input program *)
      let est = Core.size body in
      if
        ctx.clone_count >= ctx.policy.max_clones
        || ctx.est_size + est > ctx.size_allowance
      then begin
        ctx.budget_skips <- ctx.budget_skips + 1;
        None
      end
      else begin
        let name = Ident.gensym (Ident.text f ^ "$spec") in
        ctx.clone_count <- ctx.clone_count + 1;
        ctx.est_size <- ctx.est_size + est;
        Hashtbl.add ctx.memo key name;
        Ident.Tbl.replace ctx.top_names name ();
        let subst =
          List.fold_left2
            (fun m p d -> Ident.Map.add p d m)
            Ident.Map.empty dict_params dicts
        in
        let body' = Core.subst subst body in
        (* simplify first (collapses Sel-of-known-dict), then look for more
           specializable calls inside the clone — including its own
           recursive calls, which now carry constant dictionaries *)
        let body' = Simplify.expr body' in
        let body' = specialise_expr ctx body' in
        let body' = Simplify.expr body' in
        ctx.new_binds <-
          { Core.b_name = name; b_expr = Core.lam other_params body' }
          :: ctx.new_binds;
        Some name
      end

(** Forward selections from constant top-level dictionaries:
    [Sel i d$Eq$Int] → the field expression. Applied during clone
    simplification via an extra rewrite walk. *)
let resolve_top_sels ctx (e : Core.expr) : Core.expr =
  let rec go e =
    let e = Core.map_sub go e in
    match e with
    | Core.Sel (info, Core.Var d) -> (
        match Ident.Tbl.find_opt ctx.dict_bodies d with
        | Some (Core.MkDict (_, fields))
          when info.sel_index < List.length fields ->
            go (List.nth fields info.sel_index)
        | _ -> e)
    | _ -> e
  in
  go e

(* ------------------------------------------------------------------ *)
(* §8.4 "Reducing Constant Dictionaries": "local functions which are     *)
(* inferred to have an overloaded type but are used at only one          *)
(* overloading". When every call of a let-bound overloaded function      *)
(* passes the same constant dictionaries, bake them in.                  *)
(* ------------------------------------------------------------------ *)

(** All (first-k-argument lists of) calls of [g] in [e]; [None] if [g]
    occurs other than as the head of a sufficiently-applied call. *)
let call_dicts (g : Ident.t) (k : int) (e : Core.expr) :
    Core.expr list list option =
  let acc = ref [] in
  let ok = ref true in
  let rec go e =
    (* conservatively refuse when any node rebinds g *)
    if List.exists (Ident.equal g) (binders_of e) then ok := false
    else
      match Core.unfold_app e [] with
      | Core.Var g', args when Ident.equal g g' ->
          if List.length args >= k then begin
            acc := List.filteri (fun i _ -> i < k) args :: !acc;
            List.iter go args
          end
          else ok := false
      | _ ->
          (match e with
           | Core.Var g' when Ident.equal g g' -> ok := false
           | _ -> ());
          Core.iter_sub go e
  in
  go e;
  if !ok then Some !acc else None

let rewrite_local_calls (g : Ident.t) (k : int) (e : Core.expr) : Core.expr =
  let rec go e =
    if List.exists (Ident.equal g) (binders_of e) then e
    else
      match Core.unfold_app e [] with
      | Core.Var g', args when Ident.equal g g' && List.length args >= k ->
          Core.apps (Core.Var g')
            (List.filteri (fun i _ -> i >= k) (List.map go args))
      | _ -> Core.map_sub go e
  in
  go e

let rec local_reduce ctx (e : Core.expr) : Core.expr =
  let e = Core.map_sub (local_reduce ctx) e in
  match e with
  | Core.Let ((Core.Nonrec { b_name = g; b_expr = Core.Lam (vs, body) } as grp), ebody)
    -> (
      ignore grp;
      match Inner_entry.dict_prefix vs with
      | [], _ -> e
      | ds, rest -> (
          let k = List.length ds in
          match call_dicts g k ebody with
          | Some (first :: others)
            when List.for_all (List.for_all (is_constant ctx)) (first :: others)
                 && List.for_all
                      (fun args ->
                        List.for_all2
                          (fun a b ->
                            Fmt.str "%a" Tc_core_ir.Core_pp.pp a
                            = Fmt.str "%a" Tc_core_ir.Core_pp.pp b)
                          args first)
                      others ->
              (* bake the dictionaries into the binding, drop them at calls *)
              let subst =
                List.fold_left2
                  (fun m p d -> Ident.Map.add p d m)
                  Ident.Map.empty ds first
              in
              let body' = Simplify.expr (Core.subst subst (Core.lam rest body)) in
              Core.Let
                ( Core.Nonrec { b_name = g; b_expr = body' },
                  rewrite_local_calls g k ebody )
          | _ -> e))
  | _ -> e

(* Profiled hits attributed to [e]: the sum over the dispatch sites
   occurring in it. *)
let profiled_hits (counts : (int, int) Hashtbl.t) (e : Core.expr) : int =
  let total = ref 0 in
  let hit id =
    match Hashtbl.find_opt counts id with
    | Some n -> total := !total + n
    | None -> ()
  in
  let rec go (e : Core.expr) =
    (match e with
     | Core.Sel (s, _) -> hit s.Core.sel_site.Core.site_id
     | Core.MkDict (t, _) -> hit t.Core.dt_site.Core.site_id
     | _ -> ());
    Core.iter_sub go e
  in
  go e;
  !total

let empty_report ~profile_guided (p : Core.program) : report =
  let size = Core.program_size p in
  let sels, dicts = Core.static_dict_ops p in
  {
    sr_clones = 0;
    sr_call_sites = 0;
    sr_hot_binds = 0;
    sr_cold_binds = 0;
    sr_budget_skips = 0;
    sr_size_before = size;
    sr_size_after = size;
    sr_sels_before = sels;
    sr_sels_after = sels;
    sr_dicts_before = dicts;
    sr_dicts_after = dicts;
    sr_profile_guided = profile_guided;
  }

let program ?(policy = default_policy) (p : Core.program) :
    Core.program * report =
  let profile_guided = policy.hot_counts <> None in
  if policy.max_clones <= 0 then
    (* clone budget 0 is the identity transform: no cloning, and also no
       §8.4 local reduction or top-level Sel forwarding — the program
       comes back untouched *)
    (p, empty_report ~profile_guided p)
  else begin
  let size_before = Core.program_size p in
  let sels_before, dicts_before = Core.static_dict_ops p in
  let ctx =
    {
      policy;
      overloaded = Ident.Tbl.create 64;
      hot = Ident.Tbl.create 64;
      dict_bodies = Ident.Tbl.create 64;
      top_names = Ident.Tbl.create 256;
      memo = Hashtbl.create 64;
      new_binds = [];
      clone_count = 0;
      call_sites = 0;
      budget_skips = 0;
      est_size = size_before;
      size_allowance =
        (if policy.max_growth <= 0. then max_int
         else int_of_float (policy.max_growth *. float_of_int size_before));
    }
  in
  let all_binds = List.concat_map Core.binds_of_group p.p_binds in
  List.iter
    (fun (b : Core.bind) ->
      Ident.Tbl.replace ctx.top_names b.b_name ();
      (match b.b_expr with
       | Core.Lam (vs, body) -> (
           match Inner_entry.dict_prefix vs with
           | [], _ -> ()
           | ds, others -> Ident.Tbl.replace ctx.overloaded b.b_name (ds, others, body))
       | _ -> ());
      match b.b_expr with
      | Core.MkDict _ -> Ident.Tbl.replace ctx.dict_bodies b.b_name b.b_expr
      | Core.Let
          ( Core.Rec [ { b_name = self; b_expr = Core.MkDict (tag, fields) } ],
            Core.Var self' )
        when Ident.equal self self' ->
          (* a dictionary tied through a knot for its default methods: the
             knot variable IS the top-level dictionary, so substitute it *)
          let subst = Ident.Map.singleton self (Core.Var b.b_name) in
          Ident.Tbl.replace ctx.dict_bodies b.b_name
            (Core.MkDict (tag, List.map (Core.subst subst) fields))
      | _ -> ())
    all_binds;
  (* hotness: in static mode every overloaded binding is hot; under a
     profile, hot iff the profiled hits over the dispatch sites in the
     binding's body reach the threshold. Cold bindings keep dictionary
     dispatch — their call sites are left alone entirely. *)
  let hot_binds = ref 0 and cold_binds = ref 0 in
  (match policy.hot_counts with
   | None ->
       Ident.Tbl.iter
         (fun f _ ->
           incr hot_binds;
           Ident.Tbl.replace ctx.hot f ())
         ctx.overloaded
   | Some pairs ->
       let counts = Hashtbl.create 64 in
       List.iter
         (fun (id, n) ->
           let prev = Option.value ~default:0 (Hashtbl.find_opt counts id) in
           Hashtbl.replace counts id (prev + n))
         pairs;
       let threshold = max 1 policy.hot_threshold in
       List.iter
         (fun (b : Core.bind) ->
           if Ident.Tbl.mem ctx.overloaded b.b_name then
             if profiled_hits counts b.b_expr >= threshold then begin
               incr hot_binds;
               Ident.Tbl.replace ctx.hot b.b_name ()
             end
             else incr cold_binds)
         all_binds);
  let do_bind (b : Core.bind) =
    (* §8.4 constant-dictionary reduction everywhere, then clone calls *)
    let e =
      if Ident.Tbl.mem ctx.dict_bodies b.b_name then b.b_expr
      else resolve_top_sels ctx (local_reduce ctx b.b_expr)
    in
    { b with b_expr = specialise_expr ctx e }
  in
  let rewritten =
    List.map
      (function
        | Core.Nonrec b -> Core.Nonrec (do_bind b)
        | Core.Rec bs -> Core.Rec (List.map do_bind bs))
      p.p_binds
  in
  (* drain the clone worklist: post-processing a clone can create more *)
  let clones = ref [] in
  let rec drain () =
    match ctx.new_binds with
    | [] -> ()
    | b :: rest ->
        ctx.new_binds <- rest;
        let b =
          { b with b_expr = specialise_expr ctx (resolve_top_sels ctx b.b_expr) }
        in
        clones := Core.Nonrec b :: !clones;
        drain ()
  in
  drain ();
  let clones = List.rev !clones in
  let p' = { p with p_binds = rewritten @ clones } in
  let p' = Tc_core_ir.Core.regroup p' in
  let p' = Simplify.program p' in
  let sels_after, dicts_after = Core.static_dict_ops p' in
  ( p',
    {
      sr_clones = ctx.clone_count;
      sr_call_sites = ctx.call_sites;
      sr_hot_binds = !hot_binds;
      sr_cold_binds = !cold_binds;
      sr_budget_skips = ctx.budget_skips;
      sr_size_before = size_before;
      sr_size_after = Core.program_size p';
      sr_sels_before = sels_before;
      sr_sels_after = sels_after;
      sr_dicts_before = dicts_before;
      sr_dicts_after = dicts_after;
      sr_profile_guided = profile_guided;
    } )
  end
