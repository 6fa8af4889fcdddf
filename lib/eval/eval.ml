(** An environment-based evaluator for the core language.

    Supports call-by-need ([`Lazy], the paper's Haskell setting) and
    call-by-value ([`Strict]) parameter passing. In both modes, recursive
    bindings are tied with back-patched thunks and dictionary fields are
    delayed (a strict implementation would use eta-expanded method slots;
    delaying gives the same operation counts without needing recursive
    values).

    All dictionary operations are counted; see {!Counters}. *)

open Tc_support
module Core = Tc_core_ir.Core
module Ast = Tc_syntax.Ast
module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject

exception Runtime_error = Runtime.Runtime_error
exception User_error = Runtime.User_error
exception Pattern_fail = Runtime.Pattern_fail

let runtime = Runtime.runtime
let bug = Runtime.bug

type rcon = Runtime.rcon = {
  rc_name : Ident.t;
  rc_arity : int;
  rc_tag : int;
  rc_tycon : Ident.t;
}

type con_table = Runtime.con_table

let con_table_of_env = Runtime.con_table_of_env
let float_str = Runtime.float_str

type value =
  | VInt of int
  | VFloat of float
  | VChar of char
  | VStr of string                       (* internal message strings *)
  | VData of rcon * thunk array
  | VConPartial of rcon * thunk list     (* unsaturated constructor *)
  | VClosure of env * Ident.t list * Core.expr
  | VDict of Core.dict_tag * thunk array
  | VPrim of prim * thunk list           (* partially applied primitive *)

and thunk = { mutable cell : cell }

and cell =
  | Done of value
  | Todo of env * Core.expr
  | Under_eval  (* black hole *)

and env = thunk Ident.Map.t

and prim = {
  pr_name : string;
  pr_arity : int;
  pr_fn : state -> thunk list -> value;
}

and state = {
  mode : [ `Lazy | `Strict ];
  cons : con_table;
  counters : Counters.t;
  profile : Tc_obs.Profile.rt option;  (* per-site dispatch counts *)
  budget : Budget.meter;       (* step/frame/wall/alloc enforcement *)
  bools : (value * value) option;  (* True/False, built once per state *)
  true_tag : int;              (* [if] branches on these; see Runtime *)
  false_tag : int;
  mutable globals : env;       (* top-level bindings, for rendering etc. *)
}

let done_ v = { cell = Done v }

(* Every allocation is counted here, so that passing the allocation cap
   ends the step batch (see {!Budget.meter}). *)
let count_alloc st =
  let c = st.counters in
  c.allocations <- c.allocations + 1;
  Budget.allocated st.budget c.allocations

(* ------------------------------------------------------------------ *)
(* Forcing and evaluation.                                             *)
(* ------------------------------------------------------------------ *)

(* Frame accounting on this backend counts thunk-forcing depth: [force]'s
   recursion into [eval] is the evaluator's only inherently non-tail
   spine (the object program's tail calls run as OCaml tail calls and
   must stay frameless), so it is both what actually consumes native
   stack under deep non-tail object recursion and safe to bracket. *)
let rec force st (t : thunk) : value =
  match t.cell with
  | Done v -> v
  | Under_eval -> runtime "<<loop>> (value depends on itself)"
  | Todo (env, e) ->
      st.counters.thunk_forces <- st.counters.thunk_forces + 1;
      t.cell <- Under_eval;
      Budget.enter_frame st.budget;
      let v = eval st env e in
      Budget.exit_frame st.budget;
      t.cell <- Done v;
      v

and eval st (env : env) (e : Core.expr) : value =
  (* [Budget.step], inlined; the meter owns the step count *)
  let m = st.budget in
  if m.Budget.fuel > 0 then m.Budget.fuel <- m.Budget.fuel - 1
  else Budget.refill m ~allocs:st.counters.allocations;
  if !Inject.live then Inject.hit Inject.Eval_step;
  match e with
  | Core.Var x -> (
      match Ident.Map.find_opt x env with
      | Some t -> force st t
      | None -> bug "unbound variable '%s'" (Ident.text x))
  | Core.Lit (Ast.LInt n) -> VInt n
  | Core.Lit (Ast.LFloat f) -> VFloat f
  | Core.Lit (Ast.LChar c) -> VChar c
  | Core.Lit (Ast.LString s) -> VStr s
  | Core.Con c -> (
      match Ident.Tbl.find_opt st.cons c with
      | None -> bug "unknown constructor '%s'" (Ident.text c)
      | Some rc ->
          if rc.rc_arity = 0 then begin
            count_alloc st;
            VData (rc, [||])
          end
          else VConPartial (rc, []))
  | Core.App (f, a) ->
      let vf = eval st env f in
      let arg =
        match st.mode with
        | `Lazy -> { cell = Todo (env, a) }
        | `Strict -> done_ (eval st env a)
      in
      apply st vf arg
  | Core.Lam (vs, b) ->
      count_alloc st;
      VClosure (env, vs, b)
  | Core.Let (Core.Nonrec bd, body) ->
      let t =
        match st.mode with
        | `Lazy -> { cell = Todo (env, bd.b_expr) }
        | `Strict -> done_ (eval st env bd.b_expr)
      in
      eval st (Ident.Map.add bd.b_name t env) body
  | Core.Let (Core.Rec bds, body) ->
      let env' = bind_rec st env bds in
      eval st env' body
  | Core.If (c, t, f) -> (
      match eval st env c with
      | VData (rc, _) ->
          if rc.rc_tag = st.true_tag then eval st env t
          else if rc.rc_tag = st.false_tag then eval st env f
          else bug "if: expected a Bool, got constructor '%s'"
              (Ident.text rc.rc_name)
      | _ -> bug "if: condition is not a Bool")
  | Core.Case (s, alts, default) -> (
      let v = eval st env s in
      let run_default () =
        match default with
        | Some d -> eval st env d
        | None -> bug "case: no matching alternative"
      in
      match v with
      | VData (rc, fields) -> (
          match
            List.find_opt
              (fun (a : Core.alt) ->
                match a.alt_con with
                | Core.Tcon c -> Ident.equal c rc.rc_name
                | Core.Tlit _ -> false)
              alts
          with
          | Some a ->
              let env' =
                List.fold_left2
                  (fun m v' t -> Ident.Map.add v' t m)
                  env a.alt_vars (Array.to_list fields)
              in
              eval st env' a.alt_body
          | None -> run_default ())
      | VInt _ | VFloat _ | VChar _ | VStr _ -> (
          match
            List.find_opt
              (fun (a : Core.alt) ->
                match a.alt_con with
                | Core.Tlit l -> lit_matches l v
                | Core.Tcon _ -> false)
              alts
          with
          | Some a -> eval st env a.alt_body
          | None -> run_default ())
      | _ -> bug "case: scrutinee is not a data value")
  | Core.MkDict (tag, fields) ->
      st.counters.dict_constructions <- st.counters.dict_constructions + 1;
      st.counters.dict_fields <- st.counters.dict_fields + List.length fields;
      count_alloc st;
      (match st.profile with
       | Some p -> Tc_obs.Profile.hit_dict p tag
       | None -> ());
      (* dictionary fields are always delayed; see module comment *)
      VDict (tag, Array.of_list (List.map (fun f -> { cell = Todo (env, f) }) fields))
  | Core.Sel (info, d) -> (
      st.counters.selections <- st.counters.selections + 1;
      (match st.profile with
       | Some p -> Tc_obs.Profile.hit_sel p info
       | None -> ());
      match eval st env d with
      | VDict (_, fields) ->
          if info.sel_index >= Array.length fields then
            bug "dictionary selection out of range (%d of %d)"
              info.sel_index (Array.length fields)
          else force st fields.(info.sel_index)
      | _ -> bug "selection from a non-dictionary value")
  | Core.Hole h -> (
      match h.hole_fill with
      | Some inner -> eval st env inner
      | None -> bug "evaluated an unresolved placeholder")

and lit_matches (l : Core.lit) (v : value) : bool =
  match (l, v) with
  | Ast.LInt a, VInt b -> a = b
  | Ast.LFloat a, VFloat b -> a = b
  | Ast.LChar a, VChar b -> a = b
  | Ast.LString a, VStr b -> a = b  (* tag-dispatch branches on type tags *)
  | _ -> false

and bind_rec st env (bds : Core.bind list) : env =
  let thunks = List.map (fun _ -> { cell = Under_eval }) bds in
  let env' =
    List.fold_left2
      (fun m (bd : Core.bind) t -> Ident.Map.add bd.b_name t m)
      env bds thunks
  in
  List.iter2
    (fun (bd : Core.bind) t -> t.cell <- Todo (env', bd.b_expr))
    bds thunks;
  (if st.mode = `Strict then
     (* force in order; dictionary knots survive because MkDict delays *)
     List.iter (fun t -> ignore (force st t)) thunks);
  env'

and apply st (vf : value) (arg : thunk) : value =
  st.counters.applications <- st.counters.applications + 1;
  match vf with
  | VClosure (cenv, [ v ], b) -> eval st (Ident.Map.add v arg cenv) b
  | VClosure (cenv, v :: vs, b) ->
      count_alloc st;
      VClosure (Ident.Map.add v arg cenv, vs, b)
  | VClosure (_, [], _) -> assert false
  | VConPartial (rc, args) ->
      let args' = arg :: args in
      if List.length args' = rc.rc_arity then begin
        count_alloc st;
        VData (rc, Array.of_list (List.rev args'))
      end
      else VConPartial (rc, args')
  | VPrim (p, args) ->
      let args' = arg :: args in
      if List.length args' = p.pr_arity then begin
        st.counters.prim_calls <- st.counters.prim_calls + 1;
        p.pr_fn st (List.rev args')
      end
      else VPrim (p, args')
  | VInt _ | VFloat _ | VChar _ | VStr _ | VData _ | VDict _ ->
      bug "applied a non-function value"

(* ------------------------------------------------------------------ *)
(* The shared runtime: primitives, rendering, string conversions.      *)
(* ------------------------------------------------------------------ *)

include Runtime.Make (struct
  type nonrec value = value
  type nonrec thunk = thunk
  type nonrec prim = prim
  type nonrec state = state

  let force = force
  let ready = done_
  let int n = VInt n
  let float f = VFloat f
  let char c = VChar c
  let str s = VStr s
  let data rc fields = VData (rc, fields)

  let view : value -> thunk Runtime.view = function
    | VInt n -> Int n
    | VFloat f -> Float f
    | VChar c -> Char c
    | VStr s -> Str s
    | VData (rc, fields) -> Data (rc, fields)
    | VDict (tag, fields) -> Dict (tag, Array.length fields)
    | VClosure _ | VConPartial _ | VPrim _ -> Fun

  let int_arg st t =
    match force st t with VInt n -> n | _ -> bug "primitive expected an Int"

  let float_arg st t =
    match force st t with VFloat f -> f | _ -> bug "primitive expected a Float"

  let char_arg st t =
    match force st t with VChar c -> c | _ -> bug "primitive expected a Char"

  let make_prim pr_name pr_arity pr_fn = { pr_name; pr_arity; pr_fn }
  let bools st = st.bools
  let cons st = st.cons
  let counters st = st.counters
end)

(* ------------------------------------------------------------------ *)
(* Whole programs.                                                     *)
(* ------------------------------------------------------------------ *)

let create_state ?(mode = `Lazy) ?(budget = Budget.unlimited) ?profile
    (cons : con_table) : state =
  let true_tag, false_tag = Runtime.bool_tags cons in
  {
    mode;
    cons;
    counters = Counters.create ();
    profile;
    budget = Budget.meter budget;
    bools = bools cons;
    true_tag;
    false_tag;
    globals = Ident.Map.empty;
  }

(** The run's counters, with [steps] settled from the budget meter. *)
let counters st : Counters.t =
  st.counters.steps <- Budget.steps_spent st.budget;
  st.counters

(* The primitives as a global environment, built once: their cells are
   [Done] and never written, so every state can share them. *)
let prim_env : env =
  List.fold_left
    (fun m (name, pr) -> Ident.Map.add name (done_ (VPrim (pr, []))) m)
    Ident.Map.empty primitives

(** Install the top-level bindings of [p] (and the primitives) into the
    state's global environment. *)
let load_program st (p : Core.program) : unit =
  let env =
    List.fold_left
      (fun env g ->
        match g with
        | Core.Nonrec bd ->
            Ident.Map.add bd.b_name { cell = Todo (env, bd.b_expr) } env
        | Core.Rec bds ->
            (* delay: never force top-level groups eagerly, even in strict
               mode — top-level values behave like CAFs *)
            let thunks = List.map (fun _ -> { cell = Under_eval }) bds in
            let env' =
              List.fold_left2
                (fun m (bd : Core.bind) t -> Ident.Map.add bd.b_name t m)
                env bds thunks
            in
            List.iter2
              (fun (bd : Core.bind) t -> t.cell <- Todo (env', bd.b_expr))
              bds thunks;
            env')
      prim_env p.p_binds
  in
  st.globals <- env

(** Evaluate an expression in the loaded global environment. *)
let eval_expr st (e : Core.expr) : value = eval st st.globals e

(** Run a binding to a value: the explicitly requested [entry], else the
    program's [main]. *)
let run ?entry st (p : Core.program) : value =
  load_program st p;
  let entry =
    match entry with
    | Some e -> e
    | None -> (
        match p.p_main with Some m -> m | None -> Ident.intern "main")
  in
  match Ident.Map.find_opt entry st.globals with
  | Some t -> force st t
  | None -> runtime "no '%s' binding to run" (Ident.text entry)
