(** The backend-independent half of the run-time system.

    The dictionary translation leaves a parametric core program whose only
    constants are the primitives; both backends (the tree evaluator and the
    bytecode VM) interpret those constants through the one definition
    below. A backend describes its values through {!BACKEND} and gets the
    primitive table, the renderer and the string conversions from {!Make}.
    What a backend keeps to itself — closures, frames, laziness, tail
    calls — is what the tree-vs-VM differential suite compares. *)

open Tc_support
module Core = Tc_core_ir.Core

exception Runtime_error of string
exception User_error of string      (* the program called [error] *)
exception Pattern_fail of string    (* pattern-match failure *)

let runtime fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(** A condition the front end (or the bytecode compiler) is supposed to
    have ruled out: a well-typed core program can never reach it, so
    hitting one is a compiler bug, not an error in the user's program. *)
let bug fmt = Format.kasprintf (fun m -> raise (Runtime_error ("[BUG] " ^ m))) fmt

(** Run-time constructor descriptor. *)
type rcon = {
  rc_name : Ident.t;
  rc_arity : int;
  rc_tag : int;
  rc_tycon : Ident.t;
}

(** Run-time constructor table, derived from the static environment. *)
type con_table = rcon Ident.Tbl.t

let con_table_of_env (env : Tc_types.Class_env.t) : con_table =
  let tbl = Ident.Tbl.create 64 in
  Ident.Map.iter
    (fun name (ci : Tc_types.Class_env.con_info) ->
      Ident.Tbl.replace tbl name
        {
          rc_name = name;
          rc_arity = ci.con_arity;
          rc_tag = ci.con_tag;
          rc_tycon = ci.con_tycon.Tc_types.Tycon.name;
        })
    env.Tc_types.Class_env.datacons;
  tbl

(** Render a float unambiguously (always with a '.' or exponent). *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

type 'thunk view =
  | Int of int
  | Float of float
  | Char of char
  | Str of string
  | Data of rcon * 'thunk array
  | Dict of Core.dict_tag * int
  | Fun

module type BACKEND = sig
  type value
  type thunk
  type prim
  type state

  val force : state -> thunk -> value
  val ready : value -> thunk
  val int : int -> value
  val float : float -> value
  val char : char -> value
  val str : string -> value
  val data : rcon -> thunk array -> value
  val view : value -> thunk view
  val int_arg : state -> thunk -> int
  val float_arg : state -> thunk -> float
  val char_arg : state -> thunk -> char
  val make_prim : string -> int -> (state -> thunk list -> value) -> prim
  val bools : state -> (value * value) option
  val cons : state -> con_table
  val counters : state -> Counters.t
end

(* Interned once, so no run-time lookup takes the intern lock. *)
let true_id = Ident.intern "True"
let false_id = Ident.intern "False"
let nil_id = Ident.intern "[]"
let cons_id = Ident.intern ":"

let bool_tags (cons : con_table) : int * int =
  let tag id =
    match Ident.Tbl.find_opt cons id with Some rc -> rc.rc_tag | None -> -1
  in
  (tag true_id, tag false_id)

module Make (B : BACKEND) = struct
  let bools (cons : con_table) : (B.value * B.value) option =
    match (Ident.Tbl.find_opt cons true_id, Ident.Tbl.find_opt cons false_id) with
    | Some t, Some f -> Some (B.data t [||], B.data f [||])
    | _ -> None

  let bool st b : B.value =
    match B.bools st with
    | Some (t, f) -> if b then t else f
    | None -> runtime "Bool is not defined (missing prelude?)"

  (* ---------------------------------------------------------------- *)
  (* Conversions between values and OCaml strings.                     *)
  (* ---------------------------------------------------------------- *)

  let string_of_char_list st (v : B.value) : string =
    let buf = Buffer.create 16 in
    let rec go v =
      match B.view v with
      | Data (rc, fields) -> (
          match Ident.text rc.rc_name with
          | "[]" -> ()
          | ":" ->
              (match B.view (B.force st fields.(0)) with
               | Char c -> Buffer.add_char buf c
               | _ -> bug "expected a character in a string");
              go (B.force st fields.(1))
          | s -> bug "expected a list of characters, got '%s'" s)
      | _ -> bug "expected a list of characters"
    in
    go v;
    Buffer.contents buf

  let char_list_of_string st (s : string) : B.value =
    let find id = Ident.Tbl.find_opt (B.cons st) id in
    match (find nil_id, find cons_id) with
    | Some nil_rc, Some cons_rc ->
        let v = ref (B.data nil_rc [||]) in
        for i = String.length s - 1 downto 0 do
          v := B.data cons_rc [| B.ready (B.char s.[i]); B.ready !v |]
        done;
        !v
    | _ -> runtime "list constructors not registered"

  (* ---------------------------------------------------------------- *)
  (* Rendering results (forces the value's spine).                     *)
  (* ---------------------------------------------------------------- *)

  let rec render ?(depth = 50) st (v : B.value) : string =
    if depth = 0 then "..."
    else
      match B.view v with
      | Int n -> string_of_int n
      | Float f -> float_str f
      | Char c -> Printf.sprintf "%C" c
      | Str s -> Printf.sprintf "%S" s
      | Dict (tag, n) ->
          Printf.sprintf "<dict %s %s (%d fields)>"
            (Ident.text tag.dt_class) (Ident.text tag.dt_tycon) n
      | Fun -> "<function>"
      | Data (rc, fields) ->
          let name = Ident.text rc.rc_name in
          let tuple =
            (* tuples and unit *)
            String.length name >= 2 && name.[0] = '('
            && (name.[1] = ',' || name.[1] = ')')
          in
          let subs () =
            Array.to_list
              (Array.map (fun t -> render ~depth:(depth - 1) st (B.force st t)) fields)
          in
          if name = ":" || name = "[]" then render_list ~depth st rc fields
          else if Array.length fields = 0 then if tuple then "()" else name
          else if tuple then "(" ^ String.concat ", " (subs ()) ^ ")"
          else "(" ^ String.concat " " (name :: subs ()) ^ ")"

  (* Forces the whole spine and every element; a proper, non-empty list
     of characters renders as a string literal. One pass, linear. *)
  and render_list ~depth st rc fields =
    let rec collect acc rc (fields : B.thunk array) =
      match Ident.text rc.rc_name with
      | "[]" -> (true, List.rev acc)
      | ":" -> (
          let x = B.force st fields.(0) in
          match B.view (B.force st fields.(1)) with
          | Data (rc', fields') -> collect (x :: acc) rc' fields'
          | _ -> (false, List.rev (x :: acc)))
      | _ -> (false, List.rev acc)
    in
    let proper, items = collect [] rc fields in
    let chars =
      List.filter_map (fun v -> match B.view v with Char c -> Some c | _ -> None) items
    in
    if proper && items <> [] && List.compare_lengths chars items = 0 then
      Printf.sprintf "%S" (String.of_seq (List.to_seq chars))
    else
      "["
      ^ String.concat ", " (List.map (render ~depth:(depth - 1) st) items)
      ^ (if proper then "" else " ...")
      ^ "]"

  (* ---------------------------------------------------------------- *)
  (* Primitives.                                                       *)
  (* ---------------------------------------------------------------- *)

  let prim name (arity, fn) = (Ident.intern name, B.make_prim name arity fn)
  let unary f = (1, fun st -> function [ a ] -> f st a | _ -> assert false)
  let binary f = (2, fun st -> function [ a; b ] -> f st a b | _ -> assert false)
  let int2 f = binary (fun st a b -> B.int (f (B.int_arg st a) (B.int_arg st b)))

  let float2 f =
    binary (fun st a b -> B.float (f (B.float_arg st a) (B.float_arg st b)))

  let parse name of_string box =
    unary (fun st a ->
        let s = string_of_char_list st (B.force st a) in
        match of_string (String.trim s) with
        | Some x -> box x
        | None -> raise (User_error (Printf.sprintf "%s: cannot parse %S" name s)))

  let primitives : (Ident.t * B.prim) list =
    let open B in
    [
      prim "primEqInt"
        (binary (fun st a b -> bool st (int_arg st a = int_arg st b)));
      prim "primEqFloat"
        (binary (fun st a b -> bool st (float_arg st a = float_arg st b)));
      prim "primEqChar"
        (binary (fun st a b -> bool st (char_arg st a = char_arg st b)));
      prim "primLeInt"
        (binary (fun st a b -> bool st (int_arg st a <= int_arg st b)));
      prim "primLeFloat"
        (binary (fun st a b -> bool st (float_arg st a <= float_arg st b)));
      prim "primLeChar"
        (binary (fun st a b -> bool st (char_arg st a <= char_arg st b)));
      prim "primAddInt" (int2 ( + ));
      prim "primSubInt" (int2 ( - ));
      prim "primMulInt" (int2 ( * ));
      prim "primDivInt" (binary (fun st a b ->
          let d = int_arg st b in
          if d = 0 then runtime "division by zero" else int (int_arg st a / d)));
      prim "primModInt" (binary (fun st a b ->
          let d = int_arg st b in
          if d = 0 then runtime "modulo by zero" else int (int_arg st a mod d)));
      prim "primNegInt" (unary (fun st a -> int (-int_arg st a)));
      prim "primAddFloat" (float2 ( +. ));
      prim "primSubFloat" (float2 ( -. ));
      prim "primMulFloat" (float2 ( *. ));
      prim "primDivFloat" (float2 ( /. ));
      prim "primNegFloat" (unary (fun st a -> float (-.float_arg st a)));
      prim "primIntToFloat" (unary (fun st a -> float (float_of_int (int_arg st a))));
      prim "primIntStr" (unary (fun st a ->
          char_list_of_string st (string_of_int (int_arg st a))));
      prim "primFloatStr" (unary (fun st a ->
          char_list_of_string st (float_str (float_arg st a))));
      prim "primStrInt" (parse "primStrInt" int_of_string_opt int);
      prim "primStrFloat" (parse "primStrFloat" float_of_string_opt float);
      prim "primChr" (unary (fun st a ->
          let n = int_arg st a in
          if n < 0 || n > 255 then runtime "primChr: out of range"
          else char (Char.chr n)));
      prim "primOrd" (unary (fun st a -> int (Char.code (char_arg st a))));
      prim "primError" (unary (fun st a ->
          raise (User_error (string_of_char_list st (force st a)))));
      prim "primFailure" (unary (fun st a ->
          match view (force st a) with
          | Str s -> raise (Pattern_fail s)
          | _ -> raise (Pattern_fail "pattern-match failure")));
      prim "primTypeTag" (unary (fun st a ->
          let c = counters st in
          c.tag_dispatches <- c.tag_dispatches + 1;
          str
            (match view (force st a) with
             | Int _ -> "Int"
             | Float _ -> "Float"
             | Char _ -> "Char"
             | Str _ -> "<str>"
             | Data (rc, _) -> Ident.text rc.rc_tycon
             | Fun -> "->"
             | Dict _ -> "<dict>")));
      prim "primForce" (binary (fun st a b ->
          ignore (force st a);
          force st b));
    ]
end
