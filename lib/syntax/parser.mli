(** Recursive-descent parser over the layout-processed token stream.
    Infix expressions are left as flat sequences for {!Fixity.resolve_program}. *)

(** Parse a complete program, reporting parse errors to [sink].

    A recovering sink records each parse error, and the parser
    resynchronizes at the next layout-inferred top-level declaration, so
    every malformed declaration yields its own diagnostic; the
    declarations that did parse are returned. A raising sink raises
    {!Tc_support.Diagnostic.Error} with a located message on the first
    syntax error (fail-fast). Lexer errors always raise. *)
val parse_program :
  sink:Tc_support.Diagnostic.Sink.sink -> file:string -> string -> Ast.program

(** Parse an already-lexed, layout-processed token stream. Callers that
    need to time lexing, layout and parsing separately run
    {!Lexer.tokenize} and {!Layout.layout} themselves and hand the result
    here; [parse_program ~sink ~file src] is equivalent to composing the
    three. *)
val parse_program_tokens :
  sink:Tc_support.Diagnostic.Sink.sink -> Token.spanned list -> Ast.program

(** Parse a single expression (tests, REPL). *)
val parse_expression : file:string -> string -> Ast.expr
