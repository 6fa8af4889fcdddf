(** Hand-written lexer for MiniHaskell. *)

(** Tokenize an entire input. The result always ends with [EOF]. Raises
    {!Tc_support.Diagnostic.Error} on malformed input (unterminated
    literals or comments, unknown characters, integer literals
    above [max_int]). *)
val tokenize : file:string -> string -> Token.spanned list
