(** Tokens of the MiniHaskell surface language. *)

type t =
  (* identifiers and literals *)
  | VARID of string   (* lower-case identifier: names, type variables *)
  | CONID of string   (* upper-case identifier: constructors, classes, tycons *)
  | VARSYM of string  (* symbolic operator: ==, +, ... *)
  | CONSYM of string  (* symbolic constructor operator: only ":" is used *)
  | INT of int
  | FLOAT of float
  | CHAR of char
  | STRING of string
  (* keywords *)
  | KW_case
  | KW_class
  | KW_data
  | KW_deriving
  | KW_else
  | KW_if
  | KW_in
  | KW_infix
  | KW_infixl
  | KW_infixr
  | KW_instance
  | KW_let
  | KW_of
  | KW_then
  | KW_type
  | KW_where
  (* reserved operators *)
  | EQUALS       (* = *)
  | DCOLON       (* :: *)
  | DARROW       (* => *)
  | ARROW        (* -> *)
  | LAMBDA       (* \ *)
  | BAR          (* | *)
  | UNDERSCORE   (* _ *)
  | AT           (* @ *)
  | DOTDOT       (* .. *)
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | BACKQUOTE
  | LBRACE      (* explicit { *)
  | RBRACE      (* explicit } *)
  | SEMI        (* explicit ; *)
  (* inserted by the layout algorithm *)
  | VLBRACE
  | VRBRACE
  | VSEMI
  | EOF

let keyword = function
  | "case" -> Some KW_case
  | "class" -> Some KW_class
  | "data" -> Some KW_data
  | "deriving" -> Some KW_deriving
  | "else" -> Some KW_else
  | "if" -> Some KW_if
  | "in" -> Some KW_in
  | "infix" -> Some KW_infix
  | "infixl" -> Some KW_infixl
  | "infixr" -> Some KW_infixr
  | "instance" -> Some KW_instance
  | "let" -> Some KW_let
  | "of" -> Some KW_of
  | "then" -> Some KW_then
  | "type" -> Some KW_type
  | "where" -> Some KW_where
  | _ -> None

let to_string = function
  | VARID s | CONID s | VARSYM s | CONSYM s -> s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | CHAR c -> Printf.sprintf "%C" c
  | STRING s -> Printf.sprintf "%S" s
  | KW_case -> "case"
  | KW_class -> "class"
  | KW_data -> "data"
  | KW_deriving -> "deriving"
  | KW_else -> "else"
  | KW_if -> "if"
  | KW_in -> "in"
  | KW_infix -> "infix"
  | KW_infixl -> "infixl"
  | KW_infixr -> "infixr"
  | KW_instance -> "instance"
  | KW_let -> "let"
  | KW_of -> "of"
  | KW_then -> "then"
  | KW_type -> "type"
  | KW_where -> "where"
  | EQUALS -> "="
  | DCOLON -> "::"
  | DARROW -> "=>"
  | ARROW -> "->"
  | LAMBDA -> "\\"
  | BAR -> "|"
  | UNDERSCORE -> "_"
  | AT -> "@"
  | DOTDOT -> ".."
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | BACKQUOTE -> "`"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | SEMI -> ";"
  | VLBRACE -> "{(layout)"
  | VRBRACE -> "}(layout)"
  | VSEMI -> ";(layout)"
  | EOF -> "<eof>"

let pp ppf t = Fmt.string ppf (to_string t)

(** A token paired with its source span. *)
type spanned = { tok : t; loc : Tc_support.Loc.t }
