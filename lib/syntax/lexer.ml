(** Hand-written lexer for MiniHaskell.

    Produces a list of located tokens; the layout algorithm ({!Layout}) then
    inserts virtual braces and semicolons before parsing. *)

open Tc_support

type state = {
  src : string;
  file : string;
  mutable pos : int;   (* byte offset *)
  mutable line : int;  (* 1-based *)
  mutable col : int;   (* 1-based *)
}

let make ~file src = { src; file; pos = 0; line = 1; col = 1 }

let is_eof st = st.pos >= String.length st.src
let peek st = if is_eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (is_eof st) then begin
    (if st.src.[st.pos] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 1
     end
     else st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let here st : Loc.pos = { line = st.line; col = st.col }

let span st start_pos : Loc.t =
  Loc.make ~file:st.file ~start_pos ~end_pos:{ line = st.line; col = st.col - 1 }

let error st fmt =
  Diagnostic.errorf ~loc:(Loc.point ~file:st.file ~line:st.line ~col:st.col) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_digit c = c >= '0' && c <= '9'
let is_symbol_char = function
  | '!' | '#' | '$' | '%' | '&' | '*' | '+' | '.' | '/' | '<' | '=' | '>' | '?'
  | '@' | '\\' | '^' | '|' | '-' | '~' | ':' ->
      true
  | _ -> false

(* Skip the run of characters satisfying [pred], which must reject
   ['\n']: the run stays on one line, so [col] moves by its length. *)
let skip_while st pred =
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let i = ref start in
  while !i < n && pred (String.unsafe_get src !i) do
    incr i
  done;
  st.pos <- !i;
  st.col <- st.col + (!i - start)

let take_while st pred =
  let start = st.pos in
  skip_while st pred;
  String.sub st.src start (st.pos - start)

(* Skip whitespace and comments; returns unit, positioned at next token. *)
let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' ->
      skip_while st (function ' ' | '\t' | '\r' -> true | _ -> false);
      skip_trivia st
  | '\n' ->
      advance st;
      skip_trivia st
  | '-' when peek2 st = '-' ->
      (* "--" begins a line comment only if the maximal symbol run is all
         dashes (so "-->" stays an operator, as in Haskell). *)
      let all_dashes =
        let rec scan i =
          if i >= String.length st.src then true
          else if st.src.[i] = '-' then scan (i + 1)
          else not (is_symbol_char st.src.[i])
        in
        scan st.pos
      in
      if all_dashes then begin
        skip_while st (fun c -> c <> '\n');
        skip_trivia st
      end
  | '{' when peek2 st = '-' ->
      advance st;
      advance st;
      skip_block_comment st 1;
      skip_trivia st
  | _ -> ()

and skip_block_comment st depth =
  if depth = 0 then ()
  else if is_eof st then error st "unterminated block comment"
  else if peek st = '{' && peek2 st = '-' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1)
  end
  else if peek st = '-' && peek2 st = '}' then begin
    advance st;
    advance st;
    skip_block_comment st (depth - 1)
  end
  else begin
    advance st;
    skip_block_comment st depth
  end

let escape_char st =
  match peek st with
  | 'n' -> advance st; '\n'
  | 't' -> advance st; '\t'
  | 'r' -> advance st; '\r'
  | '\\' -> advance st; '\\'
  | '\'' -> advance st; '\''
  | '"' -> advance st; '"'
  | '0' -> advance st; '\000'
  | c -> error st "unknown escape sequence '\\%c'" c

let lex_char st =
  advance st (* opening quote *);
  let c =
    match peek st with
    | '\\' ->
        advance st;
        escape_char st
    | '\'' -> error st "empty character literal"
    | '\000' -> error st "unterminated character literal"
    | c ->
        advance st;
        c
  in
  if peek st <> '\'' then error st "unterminated character literal"
  else begin
    advance st;
    Token.CHAR c
  end

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | '"' ->
        advance st;
        Token.STRING (Buffer.contents buf)
    | '\000' -> error st "unterminated string literal"
    | '\n' -> error st "newline in string literal"
    | '\\' ->
        advance st;
        Buffer.add_char buf (escape_char st);
        go ()
    | _ ->
        let start = st.pos in
        skip_while st (function
          | '"' | '\000' | '\n' | '\\' -> false
          | _ -> true);
        Buffer.add_substring buf st.src start (st.pos - start);
        go ()
  in
  go ()

let lex_number st =
  let start_pos = here st in
  let int_part = take_while st is_digit in
  let is_float =
    peek st = '.' && is_digit (peek2 st)
  in
  if is_float then begin
    advance st (* '.' *);
    let frac = take_while st is_digit in
    let exp =
      if peek st = 'e' || peek st = 'E' then begin
        advance st;
        let sign =
          if peek st = '+' || peek st = '-' then begin
            let c = peek st in
            advance st;
            String.make 1 c
          end
          else ""
        in
        let digits = take_while st is_digit in
        if digits = "" then error st "malformed float exponent";
        "e" ^ sign ^ digits
      end
      else ""
    in
    Token.FLOAT (float_of_string (int_part ^ "." ^ frac ^ exp))
  end
  else
    match int_of_string_opt int_part with
    | Some n -> Token.INT n
    | None ->
        Diagnostic.errorf ~loc:(span st start_pos)
          "integer literal %s is out of range (largest is %d)" int_part max_int

let lex_symbol st =
  let s = take_while st is_symbol_char in
  match s with
  | "=" -> Token.EQUALS
  | "::" -> Token.DCOLON
  | "=>" -> Token.DARROW
  | "->" -> Token.ARROW
  | "\\" -> Token.LAMBDA
  | "|" -> Token.BAR
  | "@" -> Token.AT
  | ".." -> Token.DOTDOT
  | _ -> if s.[0] = ':' then Token.CONSYM s else Token.VARSYM s

let next_token st : Token.spanned =
  skip_trivia st;
  let start_pos = here st in
  let finish tok = { Token.tok; loc = span st start_pos } in
  if is_eof st then finish Token.EOF
  else
    match peek st with
    | '(' -> advance st; finish Token.LPAREN
    | ')' -> advance st; finish Token.RPAREN
    | '[' -> advance st; finish Token.LBRACKET
    | ']' -> advance st; finish Token.RBRACKET
    | ',' -> advance st; finish Token.COMMA
    | '`' -> advance st; finish Token.BACKQUOTE
    | '{' -> advance st; finish Token.LBRACE
    | '}' -> advance st; finish Token.RBRACE
    | ';' -> advance st; finish Token.SEMI
    | '\'' -> finish (lex_char st)
    | '"' -> finish (lex_string st)
    | '_' when not (is_ident_char (peek2 st)) ->
        advance st;
        finish Token.UNDERSCORE
    | c when is_digit c -> finish (lex_number st)
    | c when is_ident_start c || c = '_' ->
        let s = take_while st is_ident_char in
        let tok =
          match Token.keyword s with
          | Some kw -> kw
          | None ->
              if s.[0] >= 'A' && s.[0] <= 'Z' then Token.CONID s else Token.VARID s
        in
        finish tok
    | c when is_symbol_char c -> finish (lex_symbol st)
    | c -> error st "unexpected character %C" c

(** Tokenize an entire input. The resulting list always ends with [EOF]. *)
let tokenize ~file src =
  let st = make ~file src in
  let[@tail_mod_cons] rec go () =
    let t = next_token st in
    match t.Token.tok with Token.EOF -> [ t ] | _ -> t :: go ()
  in
  go ()
