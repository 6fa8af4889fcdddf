(** Static analysis (paper §4).

    Collects and validates all top-level type, class and instance
    declarations, populating a {!Class_env.t}:

    - type constructors and synonyms (with cycle checking);
    - data constructors with their typing schemes;
    - classes: superclasses (acyclic), methods, default methods;
    - instances: converted to the paper's 4-tuple (data type, class,
      dictionary name, per-argument context), with uniqueness and
      superclass-coverage checks;
    - [deriving] clauses expanded via {!Derive}.

    Value-level declarations are returned for the type checker. *)

open Tc_support
module Ast = Tc_syntax.Ast

type result = {
  env : Class_env.t;
  value_decls : Ast.decl list;  (* top-level signatures and bindings *)
}

let err = Diagnostic.errorf

(** A per-declaration recovery boundary: {!Diagnostic.guard} on the class
    environment's sink, which skips the declaration after recording its
    error (or ICE), or, when the sink raises, lets the error propagate. *)
type decl_guard = loc:Loc.t -> (unit -> unit) -> unit

(* ------------------------------------------------------------------ *)
(* Pass 1: type constructors and synonyms.                             *)
(* ------------------------------------------------------------------ *)

let check_distinct ~loc what params =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen (Ident.text p) then
        err ~loc "duplicate %s '%a'" what Ident.pp p
      else Hashtbl.add seen (Ident.text p) ())
    params

(* Returns the data declarations this pass registered, by name and
   location: the later passes skip a declaration that lost to an earlier
   one of the same name, instead of cascading into its constructors. *)
let register_tycons (env : Class_env.t) (g : decl_guard) (prog : Ast.program)
    : (Ident.t, Loc.t) Hashtbl.t =
  let registered = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.TData d ->
          g ~loc:d.td_loc (fun () ->
              if Class_env.find_tycon env d.td_name <> None
                 || Class_env.find_synonym env d.td_name <> None
              then
                err ~loc:d.td_loc "type '%a' is defined twice" Ident.pp d.td_name;
              check_distinct ~loc:d.td_loc "type parameter" d.td_params;
              env.tycons <-
                Ident.Map.add d.td_name
                  (Tycon.make d.td_name (List.length d.td_params))
                  env.tycons;
              Hashtbl.replace registered d.td_name d.td_loc)
      | Ast.TSyn s ->
          g ~loc:s.ts_loc (fun () ->
              if Class_env.find_tycon env s.ts_name <> None
                 || Class_env.find_synonym env s.ts_name <> None
              then
                err ~loc:s.ts_loc "type '%a' is defined twice" Ident.pp s.ts_name;
              check_distinct ~loc:s.ts_loc "type parameter" s.ts_params;
              env.synonyms <-
                Ident.Map.add s.ts_name (s.ts_params, s.ts_body) env.synonyms)
      | _ -> ())
    prog;
  registered

let registered_here registered (d : Ast.data_decl) =
  Hashtbl.find_opt registered d.td_name = Some d.td_loc

let check_synonym_cycles (env : Class_env.t) (g : decl_guard) =
  let rec styp_syns acc (t : Ast.styp) =
    match t with
    | Ast.TSVar _ -> acc
    | Ast.TSCon c ->
        if Ident.Map.mem c env.synonyms then c :: acc else acc
    | Ast.TSApp (a, b) | Ast.TSFun (a, b) -> styp_syns (styp_syns acc a) b
    | Ast.TSList a -> styp_syns acc a
    | Ast.TSTuple ts -> List.fold_left styp_syns acc ts
  in
  let visiting = Hashtbl.create 8 and done_ = Hashtbl.create 8 in
  let rec visit name =
    if Hashtbl.mem done_ name.Ident.id then ()
    else if Hashtbl.mem visiting name.Ident.id then
      err "type synonym '%a' is cyclic" Ident.pp name
    else begin
      Hashtbl.add visiting name.Ident.id ();
      (match Ident.Map.find_opt name env.synonyms with
       | Some (_, body) -> List.iter visit (styp_syns [] body)
       | None -> ());
      Hashtbl.remove visiting name.Ident.id;
      Hashtbl.add done_ name.Ident.id ()
    end
  in
  Ident.Map.iter (fun name _ -> g ~loc:Loc.none (fun () -> visit name)) env.synonyms

(* ------------------------------------------------------------------ *)
(* Pass 2: data constructors.                                          *)
(* ------------------------------------------------------------------ *)

let register_datacons (env : Class_env.t) (g : decl_guard) registered
    (prog : Ast.program) =
  List.iter
    (function
      | Ast.TData d -> (
          match Class_env.find_tycon env d.td_name with
          | Some tc when registered_here registered d ->
              g ~loc:d.td_loc @@ fun () ->
          let params =
            List.map (fun _ -> Ty.fresh_var ~level:Ty.generic_level ()) d.td_params
          in
          let scope = Elaborate.new_scope () in
          List.iter2 (fun p tv -> Hashtbl.add scope p tv) d.td_params params;
          let result_ty = Ty.TCon (tc, List.map (fun tv -> Ty.TVar tv) params) in
          let span = List.length d.td_cons in
          List.iteri
            (fun tag (c : Ast.con_decl) ->
              if Class_env.find_datacon env c.cd_name <> None then
                err ~loc:c.cd_loc "data constructor '%a' is defined twice"
                  Ident.pp c.cd_name;
              let args =
                List.map
                  (fun a ->
                    let before = Hashtbl.length scope in
                    let ty =
                      Elaborate.elaborate env scope ~level:Ty.generic_level
                        ~read_only:false a
                    in
                    if Hashtbl.length scope <> before then
                      err ~loc:c.cd_loc
                        "constructor '%a' mentions a type variable not bound \
                         by the data declaration"
                        Ident.pp c.cd_name;
                    ty)
                  c.cd_args
              in
              let info : Class_env.con_info =
                {
                  con_name = c.cd_name;
                  con_tycon = tc;
                  con_scheme =
                    { Scheme.vars = params; ty = Ty.arrows args result_ty };
                  con_params = params;
                  con_args = args;
                  con_tag = tag;
                  con_arity = List.length args;
                  con_span = span;
                }
              in
              env.datacons <- Ident.Map.add c.cd_name info env.datacons)
            d.td_cons;
          env.tycon_cons <-
            Ident.Map.add d.td_name
              (List.map (fun (c : Ast.con_decl) -> c.cd_name) d.td_cons)
              env.tycon_cons
          | _ ->
              (* pass 1 reported this declaration (a duplicate, or a bad
                 one in accumulating mode) — skip it *)
              ())
      | _ -> ())
    prog

(* ------------------------------------------------------------------ *)
(* Pass 3: classes.                                                    *)
(* ------------------------------------------------------------------ *)

let register_classes (env : Class_env.t) (g : decl_guard) ~outer
    (prog : Ast.program) =
  (* 3a: skeletons, so superclass references can be forward. *)
  List.iter
    (function
      | Ast.TClass c ->
          g ~loc:c.tc_loc @@ fun () ->
          if Class_env.find_class env c.tc_name <> None then
            err ~loc:c.tc_loc "class '%a' is defined twice" Ident.pp c.tc_name;
          let supers =
            List.map
              (fun (p : Ast.spred) ->
                (match p.sp_ty with
                 | Ast.TSVar v when Ident.equal v c.tc_var -> ()
                 | _ ->
                     err ~loc:p.sp_loc
                       "superclass constraint must apply to the class \
                        variable '%a'"
                       Ident.pp c.tc_var);
                p.sp_class)
              c.tc_supers
          in
          let info : Class_env.class_info =
            {
              ci_name = c.tc_name;
              ci_var = c.tc_var;
              ci_supers = supers;
              ci_methods = [];
              ci_defaults = [];
              ci_loc = c.tc_loc;
            }
          in
          env.classes <- Ident.Map.add c.tc_name info env.classes
      | _ -> ())
    prog;
  (* 3b: superclasses exist and form a DAG. *)
  Ident.Map.iter
    (fun _ (ci : Class_env.class_info) ->
      g ~loc:ci.ci_loc @@ fun () ->
      List.iter
        (fun s ->
          if Class_env.find_class env s = None then
            err ~loc:ci.ci_loc "unknown superclass '%a' of class '%a'" Ident.pp s
              Ident.pp ci.ci_name)
        ci.ci_supers;
      if List.exists (Ident.equal ci.ci_name) (Class_env.supers_closure env ci.ci_name)
      then err ~loc:ci.ci_loc "superclass cycle involving '%a'" Ident.pp ci.ci_name)
    env.classes;
  (* 3c: methods and defaults, for the declarations 3a registered (a
     duplicate must not overwrite the class it lost to) *)
  let registered (c : Ast.class_decl) =
    match Class_env.find_class env c.tc_name with
    | Some ci -> ci.ci_loc = c.tc_loc
    | None -> false
  in
  List.iter
    (function
      | Ast.TClass c when registered c ->
          g ~loc:c.tc_loc @@ fun () ->
          let grouped = Ast.group_decls c.tc_body in
          let method_names = ref [] in
          List.iter
            (fun (names, (q : Ast.sqtyp), loc) ->
              List.iter
                (fun m ->
                  if Class_env.find_method env m <> None then
                    err ~loc "method '%a' is declared in more than one class"
                      Ident.pp m;
                  if Ident.Set.mem m outer then
                    err ~loc
                      "method '%a' would redefine a name already defined (by \
                       the prelude, or as a primitive)"
                      Ident.pp m;
                  (* the signature must mention the class variable *)
                  let rec mentions (t : Ast.styp) =
                    match t with
                    | Ast.TSVar v -> Ident.equal v c.tc_var
                    | Ast.TSCon _ -> false
                    | Ast.TSApp (a, b) | Ast.TSFun (a, b) ->
                        mentions a || mentions b
                    | Ast.TSList a -> mentions a
                    | Ast.TSTuple ts -> List.exists mentions ts
                  in
                  if not (mentions q.sq_ty) then
                    err ~loc
                      "the type of method '%a' does not mention the class \
                       variable '%a'"
                      Ident.pp m Ident.pp c.tc_var;
                  List.iter
                    (fun (p : Ast.spred) ->
                      match p.sp_ty with
                      | Ast.TSVar v when Ident.equal v c.tc_var ->
                          err ~loc:p.sp_loc
                            "the context of method '%a' may not further \
                             constrain the class variable"
                            Ident.pp m
                      | _ -> ())
                    q.sq_context;
                  method_names := m :: !method_names;
                  let info : Class_env.method_info =
                    {
                      mi_name = m;
                      mi_class = c.tc_name;
                      mi_index = 0 (* assigned below *);
                      mi_sig = q;
                      mi_has_default = false (* updated below *);
                    }
                  in
                  env.methods <- Ident.Map.add m info env.methods)
                names)
            grouped.g_sigs;
          let methods = List.rev !method_names in
          (* defaults *)
          let defaults =
            List.filter_map
              (fun b ->
                match b with
                | Ast.BFun fb ->
                    if not (List.exists (Ident.equal fb.fb_name) methods) then
                      err ~loc:fb.fb_loc
                        "default definition of '%a' does not correspond to a \
                         method of class '%a'"
                        Ident.pp fb.fb_name Ident.pp c.tc_name;
                    Some (fb.fb_name, fb)
                | Ast.BPat ({ p = Ast.PVar m; p_loc }, rhs, loc) ->
                    if not (List.exists (Ident.equal m) methods) then
                      err ~loc:p_loc
                        "default definition of '%a' does not correspond to a \
                         method of class '%a'"
                        Ident.pp m Ident.pp c.tc_name;
                    Some
                      ( m,
                        {
                          Ast.fb_name = m;
                          fb_equations = [ { eq_pats = []; eq_rhs = rhs } ];
                          fb_loc = loc;
                        } )
                | Ast.BPat (p, _, _) ->
                    err ~loc:p.p_loc
                      "pattern bindings are not allowed in a class body")
              grouped.g_binds
          in
          (* record order, defaults, indices *)
          let ci = Class_env.class_exn env c.tc_name in
          env.classes <-
            Ident.Map.add c.tc_name
              { ci with ci_methods = methods; ci_defaults = defaults }
              env.classes;
          List.iteri
            (fun i m ->
              let mi = Option.get (Class_env.find_method env m) in
              let has_default =
                List.exists (fun (n, _) -> Ident.equal n m) defaults
              in
              env.methods <-
                Ident.Map.add m
                  { mi with mi_index = i; mi_has_default = has_default }
                  env.methods)
            methods
      | _ -> ())
    prog

(* ------------------------------------------------------------------ *)
(* Pass 4: instances.                                                  *)
(* ------------------------------------------------------------------ *)

(** Decompose an instance head [T a1 ... an] into the tycon name and its
    distinct variable parameters. *)
let decompose_head ~loc (env : Class_env.t) (head : Ast.styp) :
    Ident.t * Ident.t list =
  let var = function
    | Ast.TSVar v -> v
    | _ ->
        err ~loc
          "instance head must be a type constructor applied to distinct type \
           variables"
  in
  let name, params =
    match head with
    | Ast.TSCon c -> (c, [])
    | Ast.TSList t -> (Tycon.list.Tycon.name, [ var t ])
    | Ast.TSTuple [] -> (Tycon.unit.Tycon.name, [])
    | Ast.TSTuple ts ->
        (* ensure the tuple tycon/constructor are registered *)
        let ci = Class_env.tuple_con env (List.length ts) in
        (ci.con_tycon.Tycon.name, List.map var ts)
    | Ast.TSApp _ ->
        let rec flatten t args =
          match t with
          | Ast.TSApp (f, a) -> flatten f (var a :: args)
          | Ast.TSCon c -> (c, args)
          | _ ->
              err ~loc
                "instance head must be a type constructor applied to type \
                 variables"
        in
        flatten head []
    | Ast.TSFun (a, b) -> (Tycon.arrow.Tycon.name, [ var a; var b ])
    | Ast.TSVar _ -> err ~loc "instance head cannot be a bare type variable"
  in
  check_distinct ~loc "instance head variable" params;
  (match Class_env.find_synonym env name with
   | Some _ -> err ~loc "instance head cannot be a type synonym"
   | None -> ());
  (match Class_env.find_tycon env name with
   | None -> err ~loc "unknown type constructor '%a' in instance head" Ident.pp name
   | Some tc ->
       if tc.Tycon.arity <> List.length params then
         err ~loc "instance head for '%a' must apply it to exactly %d variable(s)"
           Ident.pp name tc.Tycon.arity);
  (name, params)

let process_instance (env : Class_env.t) (i : Ast.inst_decl) =
  let loc = i.ti_loc in
  let ci = Class_env.class_exn env ~loc i.ti_class in
  let tycon, params = decompose_head ~loc env i.ti_head in
  if Class_env.find_instance env ~cls:i.ti_class ~tycon <> None then
    err ~loc "duplicate instance '%a %a'" Ident.pp i.ti_class Ident.pp tycon;
  (* per-parameter context *)
  let context = Array.make (List.length params) Ty.Context.empty in
  List.iter
    (fun (p : Ast.spred) ->
      match p.sp_ty with
      | Ast.TSVar v -> (
          (match Class_env.find_class env p.sp_class with
           | Some _ -> ()
           | None -> err ~loc:p.sp_loc "unknown class '%a'" Ident.pp p.sp_class);
          match List.find_index (Ident.equal v) params with
          | Some idx ->
              context.(idx) <- Class_env.context_add env context.(idx) p.sp_class
          | None ->
              err ~loc:p.sp_loc
                "instance context mentions '%a', which is not a variable of \
                 the instance head"
                Ident.pp v)
      | _ ->
          err ~loc:p.sp_loc "instance context constraints must apply to type \
                             variables")
    i.ti_context;
  (* method implementations *)
  let grouped = Ast.group_decls i.ti_body in
  if grouped.g_sigs <> [] then
    err ~loc "type signatures are not allowed in an instance body";
  let given = Ident.Tbl.create 8 in
  List.iter
    (fun b ->
      match b with
      | Ast.BFun fb ->
          if not (List.exists (Ident.equal fb.fb_name) ci.ci_methods) then
            err ~loc:fb.fb_loc "'%a' is not a method of class '%a'" Ident.pp
              fb.fb_name Ident.pp i.ti_class;
          if Ident.Tbl.mem given fb.fb_name then
            err ~loc:fb.fb_loc "method '%a' is defined twice in this instance"
              Ident.pp fb.fb_name;
          Ident.Tbl.add given fb.fb_name fb
      | Ast.BPat ({ p = Ast.PVar m; _ }, rhs, bloc) ->
          if not (List.exists (Ident.equal m) ci.ci_methods) then
            err ~loc:bloc "'%a' is not a method of class '%a'" Ident.pp m
              Ident.pp i.ti_class;
          if Ident.Tbl.mem given m then
            err ~loc:bloc "method '%a' is defined twice in this instance"
              Ident.pp m;
          Ident.Tbl.add given m
            {
              Ast.fb_name = m;
              fb_equations = [ { eq_pats = []; eq_rhs = rhs } ];
              fb_loc = bloc;
            }
      | Ast.BPat (p, _, _) ->
          err ~loc:p.p_loc "pattern bindings are not allowed in an instance body")
    grouped.g_binds;
  let impls =
    List.map
      (fun m ->
        if Ident.Tbl.mem given m then
          (m, Class_env.User_impl (Class_env.impl_name ~cls:i.ti_class ~tycon ~meth:m))
        else begin
          let mi = Option.get (Class_env.find_method env m) in
          if not mi.mi_has_default then
            Diagnostic.Sink.warn env.sink ~loc
              "instance '%a %a' does not define method '%a' and the class \
               provides no default; calling it will fail at run time"
              Ident.pp i.ti_class Ident.pp tycon Ident.pp m;
          (m, Class_env.Default_impl)
        end)
      ci.ci_methods
  in
  let info : Class_env.inst_info =
    {
      in_class = i.ti_class;
      in_tycon = tycon;
      in_params = params;
      in_context = context;
      in_dict = Class_env.dict_name ~cls:i.ti_class ~tycon;
      in_impls = impls;
      in_body = i.ti_body;
      in_loc = loc;
    }
  in
  let by_tycon =
    match Ident.Map.find_opt i.ti_class env.instances with
    | Some m -> m
    | None -> Ident.Map.empty
  in
  env.instances <-
    Ident.Map.add i.ti_class (Ident.Map.add tycon info by_tycon) env.instances

(** Every instance must be able to build its superclass dictionaries
    (paper §8.1): the superclass instance must exist and its context must be
    implied by this instance's context, positionally. *)
let check_superclass_coverage (env : Class_env.t) (g : decl_guard) =
  List.iter
    (fun (inst : Class_env.inst_info) ->
      g ~loc:inst.in_loc @@ fun () ->
      let ci = Class_env.class_exn env inst.in_class in
      List.iter
        (fun s ->
          match Class_env.find_instance env ~cls:s ~tycon:inst.in_tycon with
          | None ->
              err ~loc:inst.in_loc
                "instance '%a %a' requires a superclass instance '%a %a', \
                 which is not defined"
                Ident.pp inst.in_class Ident.pp inst.in_tycon Ident.pp s
                Ident.pp inst.in_tycon
          | Some sinst ->
              Array.iteri
                (fun idx sctx ->
                  List.iter
                    (fun c ->
                      let have = inst.in_context.(idx) in
                      if not
                           (List.exists
                              (fun c' -> Class_env.implies env c' c)
                              have)
                      then
                        err ~loc:inst.in_loc
                          "instance '%a %a' cannot build its superclass '%a' \
                           dictionary: constraint '%a' on argument %d is not \
                           implied by the instance context"
                          Ident.pp inst.in_class Ident.pp inst.in_tycon
                          Ident.pp s Ident.pp c (idx + 1))
                    sctx)
                sinst.in_context)
        ci.ci_supers)
    (Class_env.all_instances env)

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let process ?(env = Class_env.create ()) ?(outer = Ident.Set.empty)
    (prog : Ast.program) : result =
  let g : decl_guard =
   fun ~loc f ->
    Diagnostic.guard ~sink:env.sink ~stage:"static analysis" ~loc
      ~recover:(fun () -> ())
      f
  in
  let registered = register_tycons env g prog in
  check_synonym_cycles env g;
  register_datacons env g registered prog;
  register_classes env g ~outer prog;
  (* explicit instances first, then derived ones *)
  List.iter
    (function
      | Ast.TInstance i -> g ~loc:i.ti_loc (fun () -> process_instance env i)
      | _ -> ())
    prog;
  List.iter
    (function
      | Ast.TData d when registered_here registered d ->
          List.iter
            (fun cls ->
              g ~loc:d.td_loc (fun () ->
                  process_instance env (Derive.derive cls d)))
            d.td_deriving
      | _ -> ())
    prog;
  check_superclass_coverage env g;
  let value_decls =
    List.filter_map (function Ast.TDecl d -> Some d | _ -> None) prog
  in
  { env; value_decls }
