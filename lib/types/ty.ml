(** Types with mutable unification variables.

    Following the paper (§5), every uninstantiated type variable carries a
    *context*: the set of classes its eventual instantiation must belong to.
    Unification instantiates variables and propagates their contexts; see
    {!Unify}. Variables also carry:

    - a [level] for efficient let-generalization (variables born inside the
      binding being generalized have a higher level than the environment);
      generalized variables get [generic_level];
    - a [read_only] flag implementing §8.6 user-supplied signatures: a
      read-only variable refuses instantiation and context growth. *)

open Tc_support

type t =
  | TVar of tyvar
  | TCon of Tycon.t * t list  (* always saturated *)

and tyvar = { tv_id : int; mutable tv_repr : repr }

and repr =
  | Unbound of unbound
  | Link of t

and unbound = {
  mutable level : int;
  mutable context : Ident.t list;  (* sorted, duplicate-free class names *)
  read_only : bool;
}

let generic_level = max_int

let tyvar_supply = Supply.create ~start:1 ()

let fresh_var ?(context = []) ?(read_only = false) ~level () =
  { tv_id = Supply.next tyvar_supply; tv_repr = Unbound { level; context; read_only } }

let fresh ?context ?read_only ~level () = TVar (fresh_var ?context ?read_only ~level ())

(* ------------------------------------------------------------------ *)
(* Context sets: sorted ident lists.                                   *)
(* ------------------------------------------------------------------ *)

module Context = struct
  type t = Ident.t list

  let empty : t = []
  let singleton c : t = [ c ]

  let rec add c = function
    | [] -> [ c ]
    | c' :: rest as l ->
        let cmp = Ident.compare c c' in
        if cmp = 0 then l else if cmp < 0 then c :: l else c' :: add c rest

  let union a b = List.fold_left (fun acc c -> add c acc) b a
  let mem c (l : t) = List.exists (Ident.equal c) l
  let of_list l = List.fold_left (fun acc c -> add c acc) empty l
  let pp ppf (l : t) = Fmt.list ~sep:(Fmt.any ", ") Ident.pp ppf l
end

(* ------------------------------------------------------------------ *)
(* Structure helpers.                                                  *)
(* ------------------------------------------------------------------ *)

(** Follow [Link]s until reaching an unbound variable or a constructor.
    Performs path compression. *)
let rec prune (t : t) : t =
  match t with
  | TVar ({ tv_repr = Link inner; _ } as tv) ->
      let r = prune inner in
      tv.tv_repr <- Link r;
      r
  | _ -> t

(** [t] with every link followed, rebuilt: the copy holds no [Link], so
    pruning or printing it never writes. Types shared between domains
    must be zonked, or [prune]'s path compression would write into
    them from several domains at once. *)
let rec zonk (t : t) : t =
  match prune t with
  | TVar _ as v -> v
  | TCon (tc, args) -> TCon (tc, List.map zonk args)

(** The unbound payload of a pruned [TVar]; fails on links. *)
let unbound_exn tv =
  match tv.tv_repr with
  | Unbound u -> u
  | Link _ -> invalid_arg "Ty.unbound_exn: variable is bound"

let is_generic tv =
  match tv.tv_repr with Unbound u -> u.level = generic_level | Link _ -> false

(* Constructors for common types. *)

let int = TCon (Tycon.int, [])
let float = TCon (Tycon.float, [])
let char = TCon (Tycon.char, [])
let unit = TCon (Tycon.unit, [])
let arrow a b = TCon (Tycon.arrow, [ a; b ])
let list t = TCon (Tycon.list, [ t ])

let tuple ts =
  match ts with
  | [] -> unit
  | [ t ] -> t
  | _ -> TCon (Tycon.tuple (List.length ts), ts)

let arrows args res = List.fold_right arrow args res

(** Split [a -> b -> ... -> r] into ([a; b; ...], [r]). *)
let rec unfold_arrow t =
  match prune t with
  | TCon (tc, [ a; b ]) when Tycon.is_arrow tc ->
      let args, res = unfold_arrow b in
      (a :: args, res)
  | t -> ([], t)

(** Free (unbound) type variables, in first-occurrence order. *)
let free_vars (t : t) : tyvar list =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go t =
    match prune t with
    | TVar tv ->
        if not (Hashtbl.mem seen tv.tv_id) then begin
          Hashtbl.add seen tv.tv_id ();
          acc := tv :: !acc
        end
    | TCon (_, args) -> List.iter go args
  in
  go t;
  List.rev !acc

(** Does [tv] occur (unbound) in [t]? *)
let occurs tv t =
  let rec go t =
    match prune t with
    | TVar tv' -> tv'.tv_id = tv.tv_id
    | TCon (_, args) -> List.exists go args
  in
  go t

(* ------------------------------------------------------------------ *)
(* Pretty printing.                                                    *)
(* ------------------------------------------------------------------ *)

(** Naming of type variables for display: 'a', 'b', ... assigned in order of
    appearance; a shared namer lets a qualified type's context and body agree. *)
module Namer = struct
  type nonrec t = (int, string) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let name (n : t) tv =
    match Hashtbl.find_opt n tv.tv_id with
    | Some s -> s
    | None ->
        let i = Hashtbl.length n in
        let s =
          if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i))
          else Printf.sprintf "t%d" i
        in
        Hashtbl.add n tv.tv_id s;
        s
end

let rec pp_with ?(namer : Namer.t option) prec ppf t =
  let namer = match namer with Some n -> n | None -> Namer.create () in
  let rec go prec ppf t =
    match prune t with
    | TVar tv -> Fmt.string ppf (Namer.name namer tv)
    | TCon (tc, [ a; b ]) when Tycon.is_arrow tc ->
        let doc ppf () = Fmt.pf ppf "%a -> %a" (go 1) a (go 0) b in
        if prec >= 1 then Fmt.parens doc ppf () else doc ppf ()
    | TCon (tc, [ a ]) when Tycon.is_list tc -> Fmt.pf ppf "[%a]" (go 0) a
    | TCon (tc, args) when Tycon.is_tuple tc ->
        Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") (go 0)) args
    | TCon (tc, []) -> Tycon.pp ppf tc
    | TCon (tc, args) ->
        let doc ppf () =
          Fmt.pf ppf "%a %a" Tycon.pp tc
            (Fmt.list ~sep:(Fmt.any " ") (go 2))
            args
        in
        if prec >= 2 then Fmt.parens doc ppf () else doc ppf ()
  in
  go prec ppf t

and pp ppf t = pp_with 0 ppf t

let to_string t = Fmt.str "%a" pp t

(** Render a type together with the contexts attached to its variables, e.g.
    ["(Eq a, Num b) => a -> b"]. This is how inferred types are reported. *)
let pp_qualified ppf t =
  let namer = Namer.create () in
  let vars = free_vars t in
  let preds =
    List.concat_map
      (fun tv ->
        match tv.tv_repr with
        | Unbound u -> List.map (fun c -> (c, tv)) u.context
        | Link _ -> [])
      vars
  in
  (* name variables in order of appearance first *)
  List.iter (fun tv -> ignore (Namer.name namer tv)) vars;
  (match preds with
   | [] -> ()
   | [ (c, tv) ] -> Fmt.pf ppf "%a %s => " Ident.pp c (Namer.name namer tv)
   | _ ->
       Fmt.pf ppf "(%a) => "
         (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (c, tv) ->
              Fmt.pf ppf "%a %s" Ident.pp c (Namer.name namer tv)))
         preds);
  pp_with ~namer 0 ppf t

let to_string_qualified t = Fmt.str "%a" pp_qualified t
