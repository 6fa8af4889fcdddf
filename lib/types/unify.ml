(** Unification with class-context propagation (paper §5).

    The only change relative to ML unification: when a type variable is
    instantiated, its context must be passed on to the instantiated value.
    Another variable absorbs the context by set union; a type constructor
    triggers *context reduction*, which consults the instance declarations
    and propagates the instance's context to the constructor's arguments —
    failing with "no instance" if the constructor does not belong to the
    class.

    Read-only variables (from user signatures, §8.6) refuse instantiation
    and context growth beyond what their declared context implies. *)

open Tc_support

let type_error ~loc t1 t2 reason =
  let namer = Ty.Namer.create () in
  Diagnostic.errorf ~loc "type mismatch: cannot unify '%a' with '%a'%s"
    (Ty.pp_with ~namer 0) t1 (Ty.pp_with ~namer 0) t2
    (if reason = "" then "" else ": " ^ reason)

(** Occurs check and level adjustment in one walk: every unbound variable in
    [t] must end up at a level no greater than [tv]'s. *)
let occurs_adjust ~loc (tv : Ty.tyvar) level whole =
  let rec go t =
    match Ty.prune t with
    | Ty.TVar tv' ->
        if tv'.tv_id = tv.tv_id then begin
          let namer = Ty.Namer.create () in
          Diagnostic.errorf ~loc
            "occurs check failed: cannot construct the infinite type %a ~ %a"
            (Ty.pp_with ~namer 0) (Ty.TVar tv) (Ty.pp_with ~namer 0) whole
        end;
        let u = Ty.unbound_exn tv' in
        if u.level > level then u.level <- level
    | Ty.TCon (_, args) -> List.iter go args
  in
  go whole

(** Propagate [classes] onto type [t] (the paper's [propagateClasses]). *)
let rec propagate_classes env ~loc (classes : Ty.Context.t) (t : Ty.t) : unit =
  if classes <> [] then begin
    (Stats.current ()).context_propagations <-
      (Stats.current ()).context_propagations + 1;
    match Ty.prune t with
    | Ty.TVar tv ->
        let u = Ty.unbound_exn tv in
        if u.read_only then
          List.iter
            (fun c ->
              if not (List.exists (fun c' -> Class_env.implies env c' c) u.context)
              then
                Diagnostic.errorf ~loc
                  "the signature is too general: it does not allow the \
                   required constraint '%a %a'"
                  Ident.pp c Ty.pp t)
            classes
        else u.context <- Class_env.context_union env classes u.context
    | Ty.TCon (tc, args) ->
        List.iter (fun c -> propagate_class_tycon env ~loc c tc args) classes
  end

(** Context reduction at a constructor (the paper's [propagateClassTycon]). *)
and propagate_class_tycon env ~loc c (tc : Tycon.t) args =
  (Stats.current ()).context_reductions <- (Stats.current ()).context_reductions + 1;
  Tc_obs.Trace.emit env.Class_env.trace (fun () ->
      Tc_obs.Trace.Context_reduction
        { cls = c; ty = Fmt.str "%a" (Ty.pp_with 2) (Ty.TCon (tc, args)); loc });
  match Class_env.find_instance env ~cls:c ~tycon:tc.Tycon.name with
  | None ->
      Diagnostic.errorf ~loc "no instance for '%a %a'" Ident.pp c
        (Ty.pp_with 2)
        (Ty.TCon (tc, args))
  | Some inst ->
      List.iteri
        (fun i arg -> propagate_classes env ~loc inst.Class_env.in_context.(i) arg)
        args

(** Instantiate the unbound variable [tv] to [t] (the paper's
    [instantiateTyvar]). *)
let instantiate_tyvar env ~loc (tv : Ty.tyvar) (t : Ty.t) : unit =
  (Stats.current ()).var_instantiations <- (Stats.current ()).var_instantiations + 1;
  let u = Ty.unbound_exn tv in
  if u.level = Ty.generic_level then
    invalid_arg "Unify: attempt to unify a generic (quantified) variable";
  if u.read_only then
    type_error ~loc (Ty.TVar tv) t
      "a rigid variable from a type signature cannot be instantiated";
  occurs_adjust ~loc tv u.level t;
  tv.tv_repr <- Link t;
  propagate_classes env ~loc u.context t

let rec unify env ~loc (t1 : Ty.t) (t2 : Ty.t) : unit =
  (Stats.current ()).unifications <- (Stats.current ()).unifications + 1;
  let t1 = Ty.prune t1 and t2 = Ty.prune t2 in
  match (t1, t2) with
  | Ty.TVar a, Ty.TVar b when a.tv_id = b.tv_id -> ()
  | Ty.TVar a, Ty.TVar b -> (
      (* Prefer instantiating the non-read-only side; keep the older
         (lower-level) variable when both are flexible. *)
      let ua = Ty.unbound_exn a and ub = Ty.unbound_exn b in
      match (ua.read_only, ub.read_only) with
      | true, true ->
          type_error ~loc t1 t2 "two distinct rigid signature variables"
      | true, false -> instantiate_tyvar env ~loc b t1
      | false, true -> instantiate_tyvar env ~loc a t2
      | false, false ->
          if ua.level <= ub.level then instantiate_tyvar env ~loc b t1
          else instantiate_tyvar env ~loc a t2)
  | Ty.TVar a, t | t, Ty.TVar a -> instantiate_tyvar env ~loc a t
  | Ty.TCon (tc1, args1), Ty.TCon (tc2, args2) ->
      if not (Tycon.equal tc1 tc2) then type_error ~loc t1 t2 "";
      List.iter2 (unify env ~loc) args1 args2
