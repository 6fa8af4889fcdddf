(** The flat bytecode targeted by {!Compile} and executed by {!Vm}.

    The format is closure-converted: every lambda (and every delayed
    expression — argument thunks, let bindings, dictionary fields, CAFs)
    becomes a {!proto} with an explicit capture list; variables are slot
    indices into the frame's locals, the closure environment, or the
    global table. Dictionaries are contiguous slot arrays built by
    [MKDICT n] and consulted by [DICTSEL i] — one allocation, one indexed
    load — which is exactly the cost model the paper's §9 assigns to
    dictionary passing. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval

(** Where a closure fetches a captured slot from, relative to the frame
    executing the [CLOSURE]/[DELAY] instruction. *)
type capture =
  | Cap_local of int
  | Cap_env of int

type switch = {
  sw_scrut : int;  (** local slot stashing the forced scrutinee *)
  sw_tags : int array;
      (** constructor tag ([rc_tag]) → target pc; tags past the end and
          constructors without an alternative go to [sw_default] *)
  sw_cons : (Ident.t * int) array;
      (** constructor name → target pc, as written (for disassembly) *)
  sw_lits : (Ast.lit * int) array;  (** literal → target pc *)
  sw_default : int;  (** target pc of the default alternative, or -1 *)
}

type instr =
  | CONST of int  (** push the (shared) constant-pool slot *)
  | LOCAL of int  (** push a local slot, unforced *)
  | LOCALV of int  (** push a local slot and force it *)
  | ENV of int  (** push a closure-environment slot, unforced *)
  | ENVV of int  (** push a closure-environment slot and force it *)
  | GLOBAL of int  (** push a global slot, unforced *)
  | GLOBALV of int  (** push a global slot and force it *)
  | CON of Eval.rcon  (** push a constructor value *)
  | CLOSURE of int  (** allocate a closure of the given proto; push it *)
  | DELAY of int  (** push a fresh thunk of the given 0-ary proto *)
  | STORE of int  (** pop into a local slot *)
  | REC_ALLOC of int  (** install a fresh unfilled cell in a local slot *)
  | REC_SET of int * int  (** [REC_SET (l, p)]: back-patch cell [l] with a
                              thunk of proto [p] (closing over the cells) *)
  | FORCE_LOCAL of int  (** force a local slot in place (strict letrec) *)
  | JUMP of int
  | IFELSE of int  (** pop a Bool; True falls through, False jumps *)
  | SWITCH of switch  (** pop, force, stash and dispatch the scrutinee *)
  | FIELD of int * int  (** [FIELD (l, i)]: push field [i] of the data
                            value stashed in local [l], unforced *)
  | MKDICT of Core.dict_tag * int  (** pop n field slots; push a dictionary *)
  | DICTSEL of Core.sel_info  (** pop a dictionary; push field [sel_index],
                                  forced *)
  | CALL of int  (** pop function and n argument slots; apply *)
  | TAILCALL of int  (** as [CALL], replacing the current frame *)
  | APPLY_LOCALS of int  (** synthetic (over-application continuation):
                             pop a function, apply it to locals [0..n) *)
  | RETURN
  | FAIL of string  (** raise a runtime error (unbound name, unfilled
                        placeholder, unknown constructor) *)

type proto = {
  p_name : string;  (** for disassembly and error reports *)
  p_arity : int;  (** parameters occupy locals [0..arity) *)
  p_nlocals : int;
  p_captures : capture array;
  p_code : instr array;
}

(** How a global slot is initialised at load time. *)
type ginit =
  | Gproto of int  (** a delayed CAF: thunk of the given proto *)
  | Gprim of int
      (** a built-in primitive: its index in [Eval.primitives], resolved
          when the program is lowered *)

type program = {
  protos : proto array;
  consts : Ast.lit array;
  globals : (Ident.t * ginit) array;  (** the array index is the slot *)
  entry : Ident.t option;  (** the program's [main], if any *)
}

(* Scan from the end: a later binding shadows an earlier one of the same
   name (user bindings over primitives), as in the tree evaluator's
   environment. *)
let find_global (p : program) (name : Ident.t) : int option =
  let rec go i =
    if i < 0 then None
    else if Ident.equal (fst p.globals.(i)) name then Some i
    else go (i - 1)
  in
  go (Array.length p.globals - 1)

(* ------------------------------------------------------------------ *)
(* Disassembly.                                                        *)
(* ------------------------------------------------------------------ *)

let pp_lit ppf (l : Ast.lit) =
  match l with
  | Ast.LInt n -> Fmt.int ppf n
  | Ast.LFloat f -> Fmt.string ppf (Eval.float_str f)
  | Ast.LChar c -> Fmt.pf ppf "%C" c
  | Ast.LString s -> Fmt.pf ppf "%S" s

let pp_instr ppf (i : instr) =
  match i with
  | CONST k -> Fmt.pf ppf "CONST %d" k
  | LOCAL i -> Fmt.pf ppf "LOCAL %d" i
  | LOCALV i -> Fmt.pf ppf "LOCALV %d" i
  | ENV i -> Fmt.pf ppf "ENV %d" i
  | ENVV i -> Fmt.pf ppf "ENVV %d" i
  | GLOBAL i -> Fmt.pf ppf "GLOBAL %d" i
  | GLOBALV i -> Fmt.pf ppf "GLOBALV %d" i
  | CON rc -> Fmt.pf ppf "CON %s/%d" (Ident.text rc.Eval.rc_name) rc.Eval.rc_arity
  | CLOSURE p -> Fmt.pf ppf "CLOSURE %d" p
  | DELAY p -> Fmt.pf ppf "DELAY %d" p
  | STORE i -> Fmt.pf ppf "STORE %d" i
  | REC_ALLOC i -> Fmt.pf ppf "REC_ALLOC %d" i
  | REC_SET (l, p) -> Fmt.pf ppf "REC_SET %d <- %d" l p
  | FORCE_LOCAL i -> Fmt.pf ppf "FORCE_LOCAL %d" i
  | JUMP pc -> Fmt.pf ppf "JUMP %d" pc
  | IFELSE pc -> Fmt.pf ppf "IFELSE else:%d" pc
  | SWITCH sw ->
      Fmt.pf ppf "SWITCH scrut:%d [%s]%s" sw.sw_scrut
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun (c, pc) -> Printf.sprintf "%s->%d" (Ident.text c) pc)
                 sw.sw_cons)
            @ Array.to_list
                (Array.map
                   (fun (l, pc) -> Fmt.str "%a->%d" pp_lit l pc)
                   sw.sw_lits)))
        (if sw.sw_default >= 0 then Printf.sprintf " default:%d" sw.sw_default
         else "")
  | FIELD (l, i) -> Fmt.pf ppf "FIELD %d.%d" l i
  | MKDICT (tag, n) ->
      Fmt.pf ppf "MKDICT %d  ; %s %s" n
        (Ident.text tag.Core.dt_class) (Ident.text tag.Core.dt_tycon)
  | DICTSEL s ->
      Fmt.pf ppf "DICTSEL %d  ; %s.%s" s.Core.sel_index
        (Ident.text s.Core.sel_class) s.Core.sel_label
  | CALL n -> Fmt.pf ppf "CALL %d" n
  | TAILCALL n -> Fmt.pf ppf "TAILCALL %d" n
  | APPLY_LOCALS n -> Fmt.pf ppf "APPLY_LOCALS %d" n
  | RETURN -> Fmt.string ppf "RETURN"
  | FAIL m -> Fmt.pf ppf "FAIL %S" m

let pp_proto ppf (ix : int) (p : proto) =
  Fmt.pf ppf "proto %d: %s (arity %d, locals %d%s)@." ix p.p_name p.p_arity
    p.p_nlocals
    (if Array.length p.p_captures = 0 then ""
     else
       Printf.sprintf ", captures [%s]"
         (String.concat "; "
            (Array.to_list
               (Array.map
                  (function
                    | Cap_local i -> Printf.sprintf "local %d" i
                    | Cap_env i -> Printf.sprintf "env %d" i)
                  p.p_captures))));
  Array.iteri (fun pc i -> Fmt.pf ppf "  %4d  %a@." pc pp_instr i) p.p_code

let prims = Array.of_list Eval.primitives

let pp_program ppf (p : program) =
  Fmt.pf ppf "; constants: %d, globals: %d, protos: %d@." (Array.length p.consts)
    (Array.length p.globals) (Array.length p.protos);
  if Array.length p.consts > 0 then begin
    Fmt.pf ppf "@.constants:@.";
    Array.iteri (fun i l -> Fmt.pf ppf "  %4d  %a@." i pp_lit l) p.consts
  end;
  Fmt.pf ppf "@.globals:@.";
  Array.iteri
    (fun i (name, init) ->
      Fmt.pf ppf "  %4d  %s = %s@." i (Ident.text name)
        (match init with
         | Gprim ix -> Printf.sprintf "<prim %s>" (Ident.text (fst prims.(ix)))
         | Gproto p -> Printf.sprintf "proto %d" p))
    p.globals;
  Fmt.pf ppf "@.";
  Array.iteri (fun i pr -> pp_proto ppf i pr; Fmt.pf ppf "@.") p.protos
