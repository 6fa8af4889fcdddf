(** Core → bytecode: closure conversion and slot assignment.

    The compilation is mode-directed so the bytecode realises the same
    reduction strategy the tree evaluator implements at run time:

    - [`Lazy]: argument and let-bound expressions become [DELAY]ed protos
      (thunks); variables, literals and lambdas are passed as bare slots
      (sharing the existing cell instead of wrapping it, which preserves
      every observable evaluation count).
    - [`Strict]: arguments and let bindings are evaluated inline.

    In both modes dictionary fields are always delayed and top-level
    bindings stay lazy (CAFs), exactly as in {!Tc_eval.Eval}: this is what
    keeps the dictionary counters ([dict_constructions], [selections])
    identical between the two backends. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval
module B = Bytecode

type mode = [ `Lazy | `Strict ]

(* ------------------------------------------------------------------ *)
(* Compile-time environment.                                           *)
(* ------------------------------------------------------------------ *)

type loc =
  | Llocal of int
  | Lenv of int
  | Lglobal of int

type scope = loc Ident.Map.t

(* Program-wide compilation state. *)
type gstate = {
  mode : mode;
  cons : Eval.con_table;
  mutable protos : B.proto option array;
  mutable nprotos : int;
  const_ix : (Ast.lit, int) Hashtbl.t;
  mutable consts : Ast.lit list;  (* reversed *)
  mutable nconsts : int;
}

let reserve_proto (g : gstate) : int =
  if g.nprotos = Array.length g.protos then begin
    let a = Array.make (max 16 (2 * g.nprotos)) None in
    Array.blit g.protos 0 a 0 g.nprotos;
    g.protos <- a
  end;
  let ix = g.nprotos in
  g.nprotos <- ix + 1;
  ix

let const_ix (g : gstate) (l : Ast.lit) : int =
  match Hashtbl.find_opt g.const_ix l with
  | Some i -> i
  | None ->
      let i = g.nconsts in
      Hashtbl.replace g.const_ix l i;
      g.consts <- l :: g.consts;
      g.nconsts <- i + 1;
      i

(* Per-proto code builder. *)
type builder = {
  g : gstate;
  mutable code : B.instr array;
  mutable len : int;
  mutable nlocals : int;
}

let new_builder (g : gstate) ~(arity : int) : builder =
  { g; code = Array.make 16 B.RETURN; len = 0; nlocals = arity }

let emit (b : builder) (i : B.instr) : unit =
  if b.len = Array.length b.code then begin
    let a = Array.make (2 * b.len) B.RETURN in
    Array.blit b.code 0 a 0 b.len;
    b.code <- a
  end;
  b.code.(b.len) <- i;
  b.len <- b.len + 1

let pos (b : builder) : int = b.len
let patch (b : builder) (at : int) (i : B.instr) : unit = b.code.(at) <- i

let alloc_local (b : builder) : int =
  let l = b.nlocals in
  b.nlocals <- l + 1;
  l

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

(** Push a variable's slot; [force] selects the forcing variant (value
    position) over the bare one (argument position). *)
let emit_var (b : builder) (scope : scope) ~(force : bool) (x : Ident.t) : unit =
  match Ident.Map.find_opt x scope with
  | Some (Llocal i) -> emit b (if force then B.LOCALV i else B.LOCAL i)
  | Some (Lenv i) -> emit b (if force then B.ENVV i else B.ENV i)
  | Some (Lglobal i) -> emit b (if force then B.GLOBALV i else B.GLOBAL i)
  | None ->
      emit b (B.FAIL (Printf.sprintf "unbound variable '%s'" (Ident.text x)))

let emit_con (b : builder) (c : Ident.t) : unit =
  match Ident.Tbl.find_opt b.g.cons c with
  | Some rc -> emit b (B.CON rc)
  | None ->
      emit b (B.FAIL (Printf.sprintf "unknown constructor '%s'" (Ident.text c)))

(** [SWITCH]'s dispatch table: constructor tag → target pc, [default]
    where no alternative names the constructor. The first alternative for
    a constructor wins, as in the tree evaluator's scan; a constructor
    missing from [cons] builds no value the switch could see. *)
let tag_table (cons : Eval.con_table) (alts : (Ident.t * int) list)
    ~(default : int) : int array =
  let tagged =
    List.filter_map
      (fun (c, pc) ->
        Option.map (fun rc -> (rc.Eval.rc_tag, pc)) (Ident.Tbl.find_opt cons c))
      alts
  in
  let n = List.fold_left (fun n (tag, _) -> max n (tag + 1)) 0 tagged in
  let tbl = Array.make n default in
  List.iter (fun (tag, pc) -> tbl.(tag) <- pc) (List.rev tagged);
  tbl

(** Compile [e] so its (forced) value ends up on the operand stack. In
    tail position, ends the proto ([RETURN]/[TAILCALL]). *)
let rec compile_value (b : builder) (scope : scope) (e : Core.expr)
    ~(tail : bool) : unit =
  let ret () = if tail then emit b B.RETURN in
  match e with
  | Core.Var x ->
      emit_var b scope ~force:true x;
      ret ()
  | Core.Lit l ->
      emit b (B.CONST (const_ix b.g l));
      ret ()
  | Core.Con c ->
      emit_con b c;
      ret ()
  | Core.Lam (vs, body) ->
      let p = compile_proto b.g scope ~name:"<lambda>" ~params:vs body in
      emit b (B.CLOSURE p);
      ret ()
  | Core.App _ ->
      let f, args = Core.unfold_app e [] in
      List.iter (fun a -> compile_arg b scope a) args;
      compile_value b scope f ~tail:false;
      let n = List.length args in
      emit b (if tail then B.TAILCALL n else B.CALL n)
  | Core.Let (Core.Nonrec bd, body) ->
      (if b.g.mode = `Lazy then compile_arg b scope bd.Core.b_expr
       else compile_value b scope bd.Core.b_expr ~tail:false);
      let l = alloc_local b in
      emit b (B.STORE l);
      let scope' = Ident.Map.add bd.Core.b_name (Llocal l) scope in
      compile_value b scope' body ~tail
  | Core.Let (Core.Rec bds, body) ->
      let slots = List.map (fun (bd : Core.bind) -> (bd, alloc_local b)) bds in
      let scope' =
        List.fold_left
          (fun s ((bd : Core.bind), l) -> Ident.Map.add bd.b_name (Llocal l) s)
          scope slots
      in
      List.iter (fun (_, l) -> emit b (B.REC_ALLOC l)) slots;
      List.iter
        (fun ((bd : Core.bind), l) ->
          let p =
            compile_proto b.g scope' ~name:(Ident.text bd.b_name) ~params:[]
              bd.b_expr
          in
          emit b (B.REC_SET (l, p)))
        slots;
      if b.g.mode = `Strict then
        (* force in order; dictionary knots survive because MKDICT's fields
           stay delayed, as in the tree evaluator *)
        List.iter (fun (_, l) -> emit b (B.FORCE_LOCAL l)) slots;
      compile_value b scope' body ~tail
  | Core.If (c, t, f) ->
      compile_value b scope c ~tail:false;
      let jif = pos b in
      emit b (B.IFELSE 0);
      compile_value b scope t ~tail;
      if tail then begin
        patch b jif (B.IFELSE (pos b));
        compile_value b scope f ~tail
      end
      else begin
        let jend = pos b in
        emit b (B.JUMP 0);
        patch b jif (B.IFELSE (pos b));
        compile_value b scope f ~tail;
        patch b jend (B.JUMP (pos b))
      end
  | Core.Case (s, alts, default) ->
      compile_value b scope s ~tail:false;
      let scrut = alloc_local b in
      let jsw = pos b in
      emit b (B.JUMP 0) (* placeholder for SWITCH *);
      let joins = ref [] in
      let finish () =
        if not tail then begin
          joins := pos b :: !joins;
          emit b (B.JUMP 0)
        end
      in
      let compile_alt (a : Core.alt) : int =
        let target = pos b in
        let scope' =
          List.fold_left
            (fun (sc, i) v ->
              let l = alloc_local b in
              emit b (B.FIELD (scrut, i));
              emit b (B.STORE l);
              (Ident.Map.add v (Llocal l) sc, i + 1))
            (scope, 0) a.Core.alt_vars
          |> fst
        in
        compile_value b scope' a.Core.alt_body ~tail;
        finish ();
        target
      in
      let targets = List.map (fun a -> (a, compile_alt a)) alts in
      let sw_default =
        match default with
        | None -> -1
        | Some d ->
            let target = pos b in
            compile_value b scope d ~tail;
            finish ();
            target
      in
      let cons, lits =
        List.partition_map
          (fun ((a : Core.alt), target) ->
            match a.alt_con with
            | Core.Tcon c -> Left (c, target)
            | Core.Tlit l -> Right (l, target))
          targets
      in
      patch b jsw
        (B.SWITCH
           {
             B.sw_scrut = scrut;
             sw_tags = tag_table b.g.cons cons ~default:sw_default;
             sw_cons = Array.of_list cons;
             sw_lits = Array.of_list lits;
             sw_default;
           });
      let join = pos b in
      List.iter (fun at -> patch b at (B.JUMP join)) !joins
  | Core.MkDict (tag, fields) ->
      (* dictionary fields are always delayed, in both modes *)
      List.iter (fun f -> compile_delayed b scope f) fields;
      emit b (B.MKDICT (tag, List.length fields));
      ret ()
  | Core.Sel (info, d) ->
      compile_value b scope d ~tail:false;
      emit b (B.DICTSEL info);
      ret ()
  | Core.Hole h -> (
      match h.Core.hole_fill with
      | Some inner -> compile_value b scope inner ~tail
      | None ->
          emit b (B.FAIL "evaluated an unresolved placeholder");
          ret ())

(** Compile an argument (or let-bound) expression: a bare slot push. Under
    [`Strict] the expression is evaluated inline; under [`Lazy] it is
    delayed, except for pure leaves that can be pushed directly. *)
and compile_arg (b : builder) (scope : scope) (e : Core.expr) : unit =
  if b.g.mode = `Strict then compile_value b scope e ~tail:false
  else compile_delayed b scope e

(** Lazy slot push: share existing cells for variables, push pure leaves
    directly, delay everything else. Also used for dictionary fields in
    both modes. *)
and compile_delayed (b : builder) (scope : scope) (e : Core.expr) : unit =
  match e with
  | Core.Var x when Ident.Map.mem x scope -> emit_var b scope ~force:false x
  | Core.Lit l -> emit b (B.CONST (const_ix b.g l))
  | Core.Lam (vs, body) ->
      let p = compile_proto b.g scope ~name:"<lambda>" ~params:vs body in
      emit b (B.CLOSURE p)
  | Core.Hole { Core.hole_fill = Some inner; _ } -> compile_delayed b scope inner
  | _ ->
      let p = compile_proto b.g scope ~name:"<thunk>" ~params:[] e in
      emit b (B.DELAY p)

(** Closure-convert [body] as a proto with parameters [params], capturing
    the free variables that are locals or environment slots of the
    enclosing scope (globals are reached directly). *)
and compile_proto (g : gstate) (outer : scope) ~(name : string)
    ~(params : Ident.t list) (body : Core.expr) : int =
  let ix = reserve_proto g in
  let fv =
    Ident.Set.filter
      (fun v -> not (List.exists (Ident.equal v) params))
      (Core.free_vars body)
  in
  let captures =
    Ident.Set.elements fv
    |> List.filter_map (fun v ->
           match Ident.Map.find_opt v outer with
           | Some (Llocal i) -> Some (v, B.Cap_local i)
           | Some (Lenv i) -> Some (v, B.Cap_env i)
           | Some (Lglobal _) | None -> None)
  in
  let scope =
    List.fold_left
      (fun (sc, i) (v, _) -> (Ident.Map.add v (Lenv i) sc, i + 1))
      (outer, 0) captures
    |> fst
  in
  let scope =
    List.fold_left
      (fun (sc, i) v -> (Ident.Map.add v (Llocal i) sc, i + 1))
      (scope, 0) params
    |> fst
  in
  let b = new_builder g ~arity:(List.length params) in
  compile_value b scope body ~tail:true;
  g.protos.(ix) <-
    Some
      {
        B.p_name = name;
        p_arity = List.length params;
        p_nlocals = b.nlocals;
        p_captures = Array.of_list (List.map snd captures);
        p_code = Array.sub b.code 0 b.len;
      };
  ix

(* ------------------------------------------------------------------ *)
(* Whole programs.                                                     *)
(* ------------------------------------------------------------------ *)

let program ?(mode : mode = `Lazy) ~(cons : Eval.con_table)
    (p : Core.program) : B.program =
  let g =
    {
      mode;
      cons;
      protos = Array.make 64 None;
      nprotos = 0;
      const_ix = Hashtbl.create 64;
      consts = [];
      nconsts = 0;
    }
  in
  let gtab = ref (Array.make 64 (Ident.intern "", B.Gprim 0)) in
  let nglobals = ref 0 in
  let add_global name init =
    if !nglobals = Array.length !gtab then begin
      let a = Array.make (2 * !nglobals) (Ident.intern "", B.Gprim 0) in
      Array.blit !gtab 0 a 0 !nglobals;
      gtab := a
    end;
    let ix = !nglobals in
    !gtab.(ix) <- (name, init);
    nglobals := ix + 1;
    ix
  in
  (* primitives first; user bindings may shadow them (find_global scans
     from the end, like the evaluator's environment override) *)
  let scope0 =
    List.fold_left
      (fun (sc, i) (name, _) ->
        let ix = add_global name (B.Gprim i) in
        (Ident.Map.add name (Lglobal ix) sc, i + 1))
      (Ident.Map.empty, 0) Eval.primitives
    |> fst
  in
  (* top-level groups, in dependency order; a Nonrec binding sees only the
     bindings before it, a Rec group also sees itself — mirroring
     Eval.load_program *)
  let scope =
    List.fold_left
      (fun scope group ->
        match group with
        | Core.Nonrec (bd : Core.bind) ->
            let px =
              compile_proto g scope ~name:(Ident.text bd.b_name) ~params:[]
                bd.b_expr
            in
            let ix = add_global bd.b_name (B.Gproto px) in
            Ident.Map.add bd.b_name (Lglobal ix) scope
        | Core.Rec bds ->
            (* reserve the slots first so the whole group is in scope,
               then back-patch each with its compiled proto *)
            let slots =
              List.map
                (fun (bd : Core.bind) ->
                  (bd, add_global bd.b_name (B.Gproto (-1))))
                bds
            in
            let scope' =
              List.fold_left
                (fun sc ((bd : Core.bind), ix) ->
                  Ident.Map.add bd.b_name (Lglobal ix) sc)
                scope slots
            in
            List.iter
              (fun ((bd : Core.bind), ix) ->
                let px =
                  compile_proto g scope' ~name:(Ident.text bd.b_name)
                    ~params:[] bd.b_expr
                in
                !gtab.(ix) <- (bd.b_name, B.Gproto px))
              slots;
            scope')
      scope0 p.Core.p_binds
  in
  ignore scope;
  {
    B.protos = Array.init g.nprotos (fun i -> Option.get g.protos.(i));
    consts = Array.of_list (List.rev g.consts);
    globals = Array.sub !gtab 0 !nglobals;
    entry = p.Core.p_main;
  }
