(** The core language: the target of type checking and dictionary conversion.

    Overloading is gone — dictionaries are ordinary values, built with
    [MkDict] and consulted with [Sel]. Both forms are explicit so the
    evaluator can count dictionary constructions and method selections, and
    so the optimizer can recognize dictionary redexes.

    During type checking the translation contains [Hole] nodes (the paper's
    *placeholders*, §6.1); generalization fills every hole, and
    {!Lint.check} verifies none survive. *)

open Tc_support

type lit = Tc_syntax.Ast.lit

(** A dispatch site: the identity of one [Sel]/[MkDict] node as created by
    dictionary conversion. Ids are unique per process; the optimizer and
    the VM compiler reuse the carrying records, so a site survives into
    whatever code finally runs and per-site runtime counts can be
    attributed back to this source location. *)
type site = {
  site_id : int;
  site_loc : Loc.t;
}

(** Debug/statistics label for a dictionary value: which instance built it. *)
type dict_tag = {
  dt_class : Ident.t;
  dt_tycon : Ident.t;
  dt_site : site;
}

(** A selection out of a dictionary tuple. *)
type sel_info = {
  sel_class : Ident.t;   (* class whose dictionary layout is consulted *)
  sel_index : int;       (* slot *)
  sel_label : string;    (* method or superclass name, for printing *)
  sel_site : site;
}

(** A placeholder awaiting resolution at generalization time. *)
type hole = {
  hole_id : int;
  mutable hole_fill : expr option;
}

and expr =
  | Var of Ident.t
  | Lit of lit
  | Con of Ident.t                    (* data constructor (curried) *)
  | App of expr * expr
  | Lam of Ident.t list * expr
  | Let of bind_group * expr
  | If of expr * expr * expr
  | Case of expr * alt list * expr option  (* alts + optional default *)
  | MkDict of dict_tag * expr list
  | Sel of sel_info * expr
  | Hole of hole

and alt = {
  alt_con : test;
  alt_vars : Ident.t list;  (* binders for constructor fields *)
  alt_body : expr;
}

and test =
  | Tcon of Ident.t   (* match a data constructor *)
  | Tlit of lit       (* match a literal *)

and bind = { b_name : Ident.t; b_expr : expr }

and bind_group =
  | Nonrec of bind
  | Rec of bind list

type program = {
  p_binds : bind_group list;  (* in dependency order *)
  p_main : Ident.t option;
}

(* ------------------------------------------------------------------ *)
(* Constructors and helpers.                                           *)
(* ------------------------------------------------------------------ *)

let hole_supply = Supply.create ~start:1 ()

let fresh_hole () : hole = { hole_id = Supply.next hole_supply; hole_fill = None }

let site_supply = Supply.create ~start:1 ()

let fresh_site ?(loc = Loc.none) () : site =
  { site_id = Supply.next site_supply; site_loc = loc }

let var x = Var x
let app f a = App (f, a)
let apps f args = List.fold_left app f args

let lam vars body =
  match (vars, body) with
  | [], _ -> body
  | _, Lam (vs2, b2) -> Lam (vars @ vs2, b2)
  | _ -> Lam (vars, body)

let let1 name rhs body = Let (Nonrec { b_name = name; b_expr = rhs }, body)

(** Split nested applications: [f a b c] ↦ ([f], [a;b;c]). *)
let rec unfold_app e args =
  match e with App (f, a) -> unfold_app f (a :: args) | _ -> (e, args)

let binds_of_group = function Nonrec b -> [ b ] | Rec bs -> bs

(* ------------------------------------------------------------------ *)
(* Traversal.                                                          *)
(* ------------------------------------------------------------------ *)

(** Shallow map over immediate subexpressions. Holes: a filled hole maps its
    contents (and stays filled with the image); an unfilled hole is
    returned unchanged. *)
let map_sub (f : expr -> expr) (e : expr) : expr =
  match e with
  | Var _ | Lit _ | Con _ -> e
  | App (a, b) -> App (f a, f b)
  | Lam (vs, b) -> Lam (vs, f b)
  | Let (g, b) ->
      let g' =
        match g with
        | Nonrec bd -> Nonrec { bd with b_expr = f bd.b_expr }
        | Rec bds -> Rec (List.map (fun bd -> { bd with b_expr = f bd.b_expr }) bds)
      in
      Let (g', f b)
  | If (c, t, e') -> If (f c, f t, f e')
  | Case (s, alts, d) ->
      Case
        ( f s,
          List.map (fun a -> { a with alt_body = f a.alt_body }) alts,
          Option.map f d )
  | MkDict (tag, fields) -> MkDict (tag, List.map f fields)
  | Sel (s, d) -> Sel (s, f d)
  | Hole h -> (
      match h.hole_fill with
      | Some inner ->
          h.hole_fill <- Some (f inner);
          e
      | None -> e)

let iter_sub (f : expr -> unit) (e : expr) : unit =
  match e with
  | Var _ | Lit _ | Con _ -> ()
  | App (a, b) -> f a; f b
  | Lam (_, b) -> f b
  | Let (g, b) ->
      List.iter (fun bd -> f bd.b_expr) (binds_of_group g);
      f b
  | If (c, t, e') -> f c; f t; f e'
  | Case (s, alts, d) ->
      f s;
      List.iter (fun a -> f a.alt_body) alts;
      Option.iter f d
  | MkDict (_, fields) -> List.iter f fields
  | Sel (_, d) -> f d
  | Hole h -> Option.iter f h.hole_fill

(** Replace every filled hole by its contents, recursively. Unfilled holes
    raise [Invalid_argument]. *)
let rec squash (e : expr) : expr =
  match e with
  | Hole h -> (
      match h.hole_fill with
      | Some inner -> squash inner
      | None -> invalid_arg "Core.squash: unresolved placeholder")
  | _ -> map_sub squash e

let squash_program (p : program) : program =
  let squash_bind b = { b with b_expr = squash b.b_expr } in
  {
    p with
    p_binds =
      List.map
        (function
          | Nonrec b -> Nonrec (squash_bind b)
          | Rec bs -> Rec (List.map squash_bind bs))
        p.p_binds;
  }

(* ------------------------------------------------------------------ *)
(* Free variables and size.                                            *)
(* ------------------------------------------------------------------ *)

let free_vars (e : expr) : Ident.Set.t =
  let rec go bound acc e =
    match e with
    | Var x -> if Ident.Set.mem x bound then acc else Ident.Set.add x acc
    | Lit _ | Con _ -> acc
    | App (a, b) -> go bound (go bound acc a) b
    | Lam (vs, b) -> go (List.fold_left (fun s v -> Ident.Set.add v s) bound vs) acc b
    | Let (Nonrec bd, body) ->
        let acc = go bound acc bd.b_expr in
        go (Ident.Set.add bd.b_name bound) acc body
    | Let (Rec bds, body) ->
        let bound' =
          List.fold_left (fun s bd -> Ident.Set.add bd.b_name s) bound bds
        in
        let acc = List.fold_left (fun acc bd -> go bound' acc bd.b_expr) acc bds in
        go bound' acc body
    | If (c, t, e') -> go bound (go bound (go bound acc c) t) e'
    | Case (s, alts, d) ->
        let acc = go bound acc s in
        let acc =
          List.fold_left
            (fun acc a ->
              let bound' =
                List.fold_left (fun s v -> Ident.Set.add v s) bound a.alt_vars
              in
              go bound' acc a.alt_body)
            acc alts
        in
        (match d with Some d -> go bound acc d | None -> acc)
    | MkDict (_, fields) -> List.fold_left (go bound) acc fields
    | Sel (_, d) -> go bound acc d
    | Hole h -> (
        match h.hole_fill with Some inner -> go bound acc inner | None -> acc)
  in
  go Ident.Set.empty Ident.Set.empty e

(* The top-level bindings regrouped into minimal strongly-connected
   groups in dependency order: the pipeline emits user code, method
   implementations and dictionary bindings in phases that reference each
   other, and small groups also help later optimization. *)
let regroup (p : program) : program =
  let groups =
    Scc.components
      ~name:(fun b -> b.b_name)
      ~free:(fun b -> free_vars b.b_expr)
      (List.concat_map binds_of_group p.p_binds)
  in
  {
    p with
    p_binds =
      List.map (function [ b ], false -> Nonrec b | bs, _ -> Rec bs) groups;
  }

let rec size (e : expr) : int =
  let n = ref 1 in
  iter_sub (fun sub -> n := !n + size sub) e;
  !n

let program_size (p : program) : int =
  List.fold_left
    (fun acc g ->
      List.fold_left (fun acc (b : bind) -> acc + size b.b_expr) acc
        (binds_of_group g))
    0 p.p_binds

let static_dict_ops (p : program) : int * int =
  let sels = ref 0 and dicts = ref 0 in
  let rec go (e : expr) =
    (match e with Sel _ -> incr sels | MkDict _ -> incr dicts | _ -> ());
    iter_sub go e
  in
  List.iter
    (fun g -> List.iter (fun (b : bind) -> go b.b_expr) (binds_of_group g))
    p.p_binds;
  (!sels, !dicts)

(* ------------------------------------------------------------------ *)
(* Capture-avoiding substitution of variables by expressions.          *)
(* ------------------------------------------------------------------ *)

(** [subst map e] replaces free occurrences of the mapped variables. Binders
    are freshened when they would capture a free variable of a substituted
    expression. *)
let subst (map : expr Ident.Map.t) (e : expr) : expr =
  let fvs_of_map m =
    Ident.Map.fold (fun _ e acc -> Ident.Set.union (free_vars e) acc) m
      Ident.Set.empty
  in
  let rec go map e =
    if Ident.Map.is_empty map then e
    else
      match e with
      | Var x -> (
          match Ident.Map.find_opt x map with Some e' -> e' | None -> e)
      | Lit _ | Con _ -> e
      | App (a, b) -> App (go map a, go map b)
      | Lam (vs, b) ->
          let map, vs, renaming = freshen map vs in
          Lam (vs, go map (rename renaming b))
      | Let (Nonrec bd, body) ->
          let bd' = { bd with b_expr = go map bd.b_expr } in
          let map', names, renaming = freshen map [ bd.b_name ] in
          let name = List.hd names in
          Let
            ( Nonrec { b_name = name; b_expr = bd'.b_expr },
              go map' (rename renaming body) )
      | Let (Rec bds, body) ->
          let map', names, renaming =
            freshen map (List.map (fun bd -> bd.b_name) bds)
          in
          let bds' =
            List.map2
              (fun bd name ->
                { b_name = name; b_expr = go map' (rename renaming bd.b_expr) })
              bds names
          in
          Let (Rec bds', go map' (rename renaming body))
      | If (c, t, e') -> If (go map c, go map t, go map e')
      | Case (s, alts, d) ->
          Case
            ( go map s,
              List.map
                (fun a ->
                  let map', vs, renaming = freshen map a.alt_vars in
                  {
                    a with
                    alt_vars = vs;
                    alt_body = go map' (rename renaming a.alt_body);
                  })
                alts,
              Option.map (go map) d )
      | MkDict (tag, fields) -> MkDict (tag, List.map (go map) fields)
      | Sel (s, d) -> Sel (s, go map d)
      | Hole h -> (
          match h.hole_fill with
          | Some inner -> go map inner
          | None -> invalid_arg "Core.subst: unresolved placeholder")
  and freshen map vs =
    (* remove shadowed entries; rename binders that would capture *)
    let map = List.fold_left (fun m v -> Ident.Map.remove v m) map vs in
    let fvs = fvs_of_map map in
    let renaming = ref Ident.Map.empty in
    let vs' =
      List.map
        (fun v ->
          if Ident.Set.mem v fvs then begin
            let v' = Ident.gensym (Ident.text v) in
            renaming := Ident.Map.add v (Var v') !renaming;
            v'
          end
          else v)
        vs
    in
    (map, vs', !renaming)
  and rename renaming e = if Ident.Map.is_empty renaming then e else go renaming e
  in
  go map e
