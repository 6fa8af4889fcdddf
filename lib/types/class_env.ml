(** The static type environment (paper §4).

    Collects everything the type checker needs about top-level declarations:
    type constructors, data constructors, type synonyms, classes (with
    superclasses, methods and default methods) and instances (with their
    contexts and generated dictionary names). *)

open Tc_support
module Ast = Tc_syntax.Ast

(* ------------------------------------------------------------------ *)
(* Records.                                                            *)
(* ------------------------------------------------------------------ *)

type con_info = {
  con_name : Ident.t;
  con_tycon : Tycon.t;
  con_scheme : Scheme.t;     (* forall as. t1 -> ... -> tn -> T as *)
  con_params : Ty.tyvar list; (* the quantified vars, in head order *)
  con_args : Ty.t list;      (* argument types over [con_params] *)
  con_tag : int;             (* position among the tycon's constructors *)
  con_arity : int;
  con_span : int;            (* number of constructors of the tycon *)
}

type method_info = {
  mi_name : Ident.t;
  mi_class : Ident.t;
  mi_sig : Ast.sqtyp;        (* declared signature; may add extra context (§8.5) *)
  mi_has_default : bool;
}

type class_info = {
  ci_name : Ident.t;
  ci_var : Ident.t;          (* the class type variable *)
  ci_supers : Ident.t list;  (* direct superclasses *)
  ci_methods : Ident.t list; (* method names, declaration order *)
  ci_defaults : (Ident.t * Ast.fun_bind) list; (* default method bodies *)
  ci_loc : Loc.t;
}

(** How an instance fills a method slot. *)
type impl =
  | User_impl of Ident.t     (* generated global holding the user definition *)
  | Default_impl             (* fall back to the class default (§8.2) *)

type inst_info = {
  in_class : Ident.t;
  in_tycon : Ident.t;
  in_params : Ident.t list;          (* instance head variables a1..an *)
  in_context : Ty.Context.t array;   (* per head variable (paper §4) *)
  in_dict : Ident.t;                 (* generated dictionary name, d$C$T *)
  in_impls : (Ident.t * impl) list;  (* per method, class declaration order *)
  in_body : Ast.decl list;           (* the user's method definitions *)
  in_loc : Loc.t;
}

type t = {
  mutable tycons : Tycon.t Ident.Map.t;
  mutable datacons : con_info Ident.Map.t;
  mutable synonyms : (Ident.t list * Ast.styp) Ident.Map.t;
  mutable classes : class_info Ident.Map.t;
  mutable methods : method_info Ident.Map.t;
  (* instances: class -> tycon -> info *)
  mutable instances : inst_info Ident.Map.t Ident.Map.t;
  sink : Diagnostic.Sink.sink;
  (* observability: where inference/unification emit trace events. Set by
     the pipeline after construction; [Trace.none] disables tracing. *)
  mutable trace : Tc_obs.Trace.t;
}

(** Builtin data constructors: nil, cons, unit. Tuple constructors are
    registered on demand (see {!tuple_con}). *)
let builtin_datacons () : con_info list =
  let a = Ty.fresh_var ~level:Ty.generic_level () in
  let list_a = Ty.list (Ty.TVar a) in
  let nil =
    {
      con_name = Ident.intern "[]";
      con_tycon = Tycon.list;
      con_scheme = { Scheme.vars = [ a ]; ty = list_a };
      con_params = [ a ];
      con_args = [];
      con_tag = 0;
      con_arity = 0;
      con_span = 2;
    }
  in
  let cons =
    {
      con_name = Ident.intern ":";
      con_tycon = Tycon.list;
      con_scheme =
        { Scheme.vars = [ a ]; ty = Ty.arrows [ Ty.TVar a; list_a ] list_a };
      con_params = [ a ];
      con_args = [ Ty.TVar a; list_a ];
      con_tag = 1;
      con_arity = 2;
      con_span = 2;
    }
  in
  let unit =
    {
      con_name = Ident.intern "()";
      con_tycon = Tycon.unit;
      con_scheme = { Scheme.vars = []; ty = Ty.unit };
      con_params = [];
      con_args = [];
      con_tag = 0;
      con_arity = 0;
      con_span = 1;
    }
  in
  [ nil; cons; unit ]

let create () =
  let tycons =
    List.fold_left
      (fun m (tc : Tycon.t) -> Ident.Map.add tc.name tc m)
      Ident.Map.empty Tycon.builtins
  in
  let datacons =
    List.fold_left
      (fun m (ci : con_info) -> Ident.Map.add ci.con_name ci m)
      Ident.Map.empty (builtin_datacons ())
  in
  {
    tycons;
    datacons;
    synonyms = Ident.Map.empty;
    classes = Ident.Map.empty;
    methods = Ident.Map.empty;
    instances = Ident.Map.empty;
    sink = Diagnostic.Sink.raising ();
    trace = Tc_obs.Trace.none;
  }

(** A fresh environment extending [env]: every table is a persistent map,
    so this is a record copy, and what is added through the copy never
    reaches [env]. The copy gets its own diagnostic sink (a raising one by
    default) and no trace. *)
let extend ?(sink = Diagnostic.Sink.raising ()) env =
  { env with sink; trace = Tc_obs.Trace.none }

(** The constructor of the [n]-tuple, registered on first use. *)
let tuple_con env n : con_info =
  if n < 2 then invalid_arg "Class_env.tuple_con";
  let tc = Tycon.tuple n in
  match Ident.Map.find_opt tc.Tycon.name env.datacons with
  | Some ci -> ci
  | None ->
      let params = List.init n (fun _ -> Ty.fresh_var ~level:Ty.generic_level ()) in
      let args = List.map (fun tv -> Ty.TVar tv) params in
      let result = Ty.TCon (tc, args) in
      let ci =
        {
          con_name = tc.Tycon.name;
          con_tycon = tc;
          con_scheme = { Scheme.vars = params; ty = Ty.arrows args result };
          con_params = params;
          con_args = args;
          con_tag = 0;
          con_arity = n;
          con_span = 1;
        }
      in
      env.datacons <- Ident.Map.add tc.Tycon.name ci env.datacons;
      (if not (Ident.Map.mem tc.Tycon.name env.tycons) then
         env.tycons <- Ident.Map.add tc.Tycon.name tc env.tycons);
      ci

(* ------------------------------------------------------------------ *)
(* Lookup.                                                             *)
(* ------------------------------------------------------------------ *)

let find_tycon env name = Ident.Map.find_opt name env.tycons
let find_datacon env name = Ident.Map.find_opt name env.datacons
let find_synonym env name = Ident.Map.find_opt name env.synonyms
let find_class env name = Ident.Map.find_opt name env.classes
let find_method env name = Ident.Map.find_opt name env.methods

let class_exn env ?(loc = Loc.none) name =
  match find_class env name with
  | Some c -> c
  | None -> Diagnostic.errorf ~loc "unknown class '%a'" Ident.pp name

let find_instance env ~cls ~tycon : inst_info option =
  match Ident.Map.find_opt cls env.instances with
  | None -> None
  | Some by_tycon -> Ident.Map.find_opt tycon by_tycon

let all_instances env : inst_info list =
  Ident.Map.fold
    (fun _ by_tycon acc -> Ident.Map.fold (fun _ i acc -> i :: acc) by_tycon acc)
    env.instances []

let all_classes env : class_info list =
  Ident.Map.fold (fun _ c acc -> c :: acc) env.classes []

(* ------------------------------------------------------------------ *)
(* Superclass relation (§8.1).                                         *)
(* ------------------------------------------------------------------ *)

(** All strict superclasses of [c], transitively. *)
let supers_closure env c : Ident.t list =
  let seen = ref Ident.Set.empty in
  let rec go c =
    match find_class env c with
    | None -> ()
    | Some ci ->
        List.iter
          (fun s ->
            if not (Ident.Set.mem s !seen) then begin
              seen := Ident.Set.add s !seen;
              go s
            end)
          ci.ci_supers
  in
  go c;
  Ident.Set.elements !seen

(** [implies env c c'] holds when a [c] dictionary can supply a [c']
    dictionary: [c = c'] or [c'] is a (transitive) superclass of [c]. *)
let implies env c c' =
  Ident.equal c c' || List.exists (Ident.equal c') (supers_closure env c)

(** Remove classes implied by other members of the context (superclass
    absorption, §8.1): [(Num a, Eq a)] becomes [Num a]. *)
let reduce_context env (ctx : Ty.Context.t) : Ty.Context.t =
  List.filter
    (fun c ->
      not
        (List.exists (fun c' -> (not (Ident.equal c c')) && implies env c' c) ctx))
    ctx

(** Add a class to a context, keeping it superclass-reduced. *)
let context_add env (ctx : Ty.Context.t) c : Ty.Context.t =
  if List.exists (fun c' -> implies env c' c) ctx then ctx
  else reduce_context env (Ty.Context.add c ctx)

let context_union env a b = List.fold_left (context_add env) b a

(* ------------------------------------------------------------------ *)
(* Generated names.                                                    *)
(* ------------------------------------------------------------------ *)

(* '$' cannot appear in source identifiers, so generated names are fresh. *)

let tycon_label (name : Ident.t) =
  (* bracket-free label for list/tuple/unit tycons *)
  match Ident.text name with
  | "[]" -> "List"
  | "()" -> "Unit"
  | "->" -> "Fun"
  | s when String.length s >= 3 && s.[0] = '(' && s.[1] = ',' ->
      Printf.sprintf "Tup%d" (String.length s - 1)
  | s -> s

let dict_name ~cls ~tycon =
  Ident.intern (Printf.sprintf "d$%s$%s" (Ident.text cls) (tycon_label tycon))

let impl_name ~cls ~tycon ~meth =
  Ident.intern
    (Printf.sprintf "m$%s$%s$%s" (Ident.text cls) (tycon_label tycon)
       (Ident.text meth))

let default_name ~cls ~meth =
  Ident.intern (Printf.sprintf "def$%s$%s" (Ident.text cls) (Ident.text meth))
