(** Type schemes.

    A scheme quantifies a list of *generic* type variables (level =
    {!Ty.generic_level}), each carrying its class context. Generic variables
    are never unified directly: instantiation copies the body, replacing each
    generic variable with a fresh one at the current level that inherits a
    copy of the context.

    The order of [vars] is significant: it fixes the order of the hidden
    dictionary parameters (paper §6.2, §8.6), so instantiation reports the
    fresh variables in the same order for placeholder generation. *)

open Tc_support

type t = {
  vars : Ty.tyvar list;  (* generic variables, in dictionary-parameter order *)
  ty : Ty.t;
}

(** A scheme with no quantified variables (monomorphic environment entry). *)
let mono ty = { vars = []; ty }

(** [instantiate ~level s] returns the body with fresh variables substituted
    for the generic ones, together with the fresh variables in quantifier
    order (used to insert dictionary placeholders at occurrence sites). *)
let instantiate ~level (s : t) : Ty.t * Ty.tyvar list =
  (Stats.current ()).schemes_instantiated <- (Stats.current ()).schemes_instantiated + 1;
  if s.vars = [] then (s.ty, [])
  else begin
    let mapping = Hashtbl.create 8 in
    let fresh_vars =
      List.map
        (fun (tv : Ty.tyvar) ->
          let u = Ty.unbound_exn tv in
          let fresh = Ty.fresh_var ~context:u.context ~level () in
          Hashtbl.add mapping tv.tv_id fresh;
          fresh)
        s.vars
    in
    let rec copy t =
      match Ty.prune t with
      | Ty.TVar tv -> (
          match Hashtbl.find_opt mapping tv.tv_id with
          | Some fresh -> Ty.TVar fresh
          | None -> Ty.TVar tv (* free in the scheme: shared, not copied *))
      | Ty.TCon (tc, args) -> Ty.TCon (tc, List.map copy args)
    in
    (copy s.ty, fresh_vars)
  end

(** The context of the scheme as (class, quantifier position) pairs, in
    dictionary-parameter order. *)
let context (s : t) : (Ident.t * int) list =
  List.concat
    (List.mapi
       (fun i (tv : Ty.tyvar) ->
         List.map (fun c -> (c, i)) (Ty.unbound_exn tv).context)
       s.vars)

let pp ppf (s : t) =
  let namer = Ty.Namer.create () in
  (* name variables by first appearance in the type (the context may
     quantify them in dictionary order, which can differ) *)
  List.iter (fun tv -> ignore (Ty.Namer.name namer tv)) (Ty.free_vars s.ty);
  List.iter (fun tv -> ignore (Ty.Namer.name namer tv)) s.vars;
  let preds =
    List.concat_map
      (fun (tv : Ty.tyvar) ->
        List.map (fun c -> (c, Ty.Namer.name namer tv)) (Ty.unbound_exn tv).context)
      s.vars
  in
  (match preds with
   | [] -> ()
   | [ (c, v) ] -> Fmt.pf ppf "%a %s => " Ident.pp c v
   | _ ->
       Fmt.pf ppf "(%a) => "
         (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (c, v) ->
              Fmt.pf ppf "%a %s" Ident.pp c v))
         preds);
  Ty.pp_with ~namer 0 ppf s.ty

let to_string s = Fmt.str "%a" pp s
