(** Code generation for instance dictionaries.

    For every instance declaration [instance ctx => C (T a1 .. an)] we emit a
    top-level binding

    {v d$C$T = \dicts(ctx) -> MkDict [ ...slots... ] v}

    (paper §4: "a definition is inserted into the program which binds the
    dictionary value, a tuple of method functions, to a variable"). Slot
    contents depend on the layout strategy; overloaded dictionaries capture
    their sub-dictionaries by partial application, exactly as the paper's
    [eqList] example stores its [eq] argument. *)

open Tc_support
module Class_env = Tc_types.Class_env
module Core = Tc_core_ir.Core

(** Parameter name for the dictionary of [cls] on instance-head variable
    [i]. Deterministic, so impl bindings and dictionary bindings agree. *)
let param_name i cls =
  Ident.intern (Printf.sprintf "d$%d$%s" i (Ident.text cls))

(** The instance's dictionary parameters, param-major order. *)
let dict_params (inst : Class_env.inst_info) : (int * Ident.t * Ident.t) list =
  List.concat
    (List.mapi
       (fun i ctx -> List.map (fun c -> (i, c, param_name i c)) ctx)
       (Array.to_list inst.in_context))

(** Dictionary for class [cls] on instance-head variable [i], built from the
    instance's own dictionary parameters (via superclass extraction when the
    context provides a stronger class). *)
let dict_for env strategy (inst : Class_env.inst_info) ~(param : int) cls :
    Core.expr =
  let available = inst.in_context.(param) in
  match List.find_opt (fun c' -> Class_env.implies env c' cls) available with
  | Some c' ->
      Access.super_dict env strategy ~loc:inst.in_loc ~have:c' ~target:cls
        (Core.Var (param_name param c'))
  | None ->
      invalid_arg
        (Fmt.str
           "Construct.dict_for: instance %a %a context cannot supply %a for \
            argument %d"
           Ident.pp inst.in_class Ident.pp inst.in_tycon Ident.pp cls param)

(** Dictionary expression for another instance [target] at the same head,
    e.g. the superclass instance (S, T), using this instance's parameters. *)
let rec dict_of_instance env strategy ~(from : Class_env.inst_info)
    (target : Class_env.inst_info) : Core.expr =
  let args =
    List.concat
      (List.mapi
         (fun i ctx -> List.map (fun c -> dict_for env strategy from ~param:i c) ctx)
         (Array.to_list target.in_context))
  in
  Core.apps (Core.Var target.in_dict) args

(** The expression filling one method slot. [self] names the dictionary
    under construction (needed by default methods). *)
and method_slot env strategy ~(self : Ident.t)
    ~(from : Class_env.inst_info) (owner_inst : Class_env.inst_info)
    (meth : Ident.t) : Core.expr =
  match List.assoc_opt meth owner_inst.in_impls with
  | Some (Class_env.User_impl impl) ->
      (* the impl lambda-binds its own instance's context dictionaries; for a
         superclass instance these are built from [from]'s parameters *)
      let args =
        if Ident.equal owner_inst.in_dict from.in_dict then
          List.map (fun (_, _, p) -> Core.Var p) (dict_params owner_inst)
        else
          List.concat
            (List.mapi
               (fun i ctx ->
                 List.map (fun c -> dict_for env strategy from ~param:i c) ctx)
               (Array.to_list owner_inst.in_context))
      in
      Core.apps (Core.Var impl) args
  | Some Class_env.Default_impl ->
      let self_dict =
        if Ident.equal owner_inst.in_dict from.in_dict then Core.Var self
        else dict_of_instance env strategy ~from owner_inst
      in
      Core.App
        ( Core.Var
            (Class_env.default_name ~cls:owner_inst.in_class ~meth),
          self_dict )
  | None ->
      invalid_arg
        (Fmt.str "Construct.method_slot: no impl for %a in instance %a %a"
           Ident.pp meth Ident.pp owner_inst.in_class Ident.pp
           owner_inst.in_tycon)

(** The body of an instance's dictionary binding. *)
let instance_dict_expr env strategy (inst : Class_env.inst_info) : Core.expr =
  let self = Ident.gensym "self" in
  let tag =
    { Core.dt_class = inst.in_class; dt_tycon = inst.in_tycon;
      dt_site = Core.fresh_site ~loc:inst.in_loc () }
  in
  let uses_default = ref false in
  let fields =
    match strategy with
    | Layout.Nested ->
        let ci = Class_env.class_exn env inst.in_class in
        let supers =
          List.map
            (fun s ->
              let sinst =
                Option.get
                  (Class_env.find_instance env ~cls:s ~tycon:inst.in_tycon)
              in
              dict_of_instance env strategy ~from:inst sinst)
            ci.ci_supers
        in
        let methods =
          List.map
            (fun m ->
              (match List.assoc_opt m inst.in_impls with
               | Some Class_env.Default_impl -> uses_default := true
               | _ -> ());
              method_slot env strategy ~self ~from:inst inst m)
            ci.ci_methods
        in
        supers @ methods
    | Layout.Flat ->
        List.map
          (fun (owner, m) ->
            if Ident.equal owner inst.in_class then begin
              (match List.assoc_opt m inst.in_impls with
               | Some Class_env.Default_impl -> uses_default := true
               | _ -> ());
              method_slot env strategy ~self ~from:inst inst m
            end
            else
              let oinst =
                Option.get
                  (Class_env.find_instance env ~cls:owner ~tycon:inst.in_tycon)
              in
              method_slot env strategy ~self ~from:inst oinst m)
          (Layout.flat_slots env inst.in_class)
  in
  let dict = Core.MkDict (tag, fields) in
  let body =
    if !uses_default then
      (* default methods receive the dictionary being built: tie the knot *)
      Core.Let (Core.Rec [ { b_name = self; b_expr = dict } ], Core.Var self)
    else dict
  in
  let params = List.map (fun (_, _, p) -> p) (dict_params inst) in
  Core.lam params body

let instance_dict_binding env strategy inst : Core.bind =
  { Core.b_name = inst.Class_env.in_dict;
    b_expr = instance_dict_expr env strategy inst }
