(** Lexer and layout tests. *)

open Tc_syntax

let toks src =
  List.map (fun (t : Token.spanned) -> t.tok) (Lexer.tokenize ~file:"t" src)

let laid src =
  List.map (fun (t : Token.spanned) -> t.tok) (Layout.tokenize ~file:"t" src)

let show ts = String.concat " " (List.map Token.to_string ts)

let check name src expected =
  Helpers.case name (fun () ->
      Alcotest.(check string) name expected (show (toks src)))

let check_layout name src expected =
  Helpers.case name (fun () ->
      Alcotest.(check string) name expected (show (laid src)))

let strip_eof s = s ^ " <eof>"

(* ---- token golden ---- *)

(* One line per token: its span, its class and its text; a lexer error
   ends the dump with its message and location. *)
let dump ~file src =
  let kind : Token.t -> string = function
    | VARID _ -> "varid "
    | CONID _ -> "conid "
    | VARSYM _ -> "varsym "
    | CONSYM _ -> "consym "
    | INT _ -> "int "
    | FLOAT _ -> "float "
    | CHAR _ -> "char "
    | STRING _ -> "string "
    | _ -> ""
  in
  let line (t : Token.spanned) =
    Printf.sprintf "%d:%d-%d:%d %s%s" t.loc.start_pos.line t.loc.start_pos.col
      t.loc.end_pos.line t.loc.end_pos.col (kind t.tok) (Token.to_string t.tok)
  in
  match Lexer.tokenize ~file src with
  | ts -> String.concat "\n" (List.map line ts)
  | exception Tc_support.Diagnostic.Error d -> Tc_support.Diagnostic.to_string d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Digests of [dump] for each input, recorded before the lexer scanned
   by runs of bytes: any change to a token, its class or its span
   changes a digest. *)
let golden =
  [
    ("../examples/programs/calculator.mhs", "b87132a768adbac66a5953bc4f588487");
    ("../examples/programs/matrix.mhs", "ab8be722391d15ac46b5863f2f5ed9c5");
    ("../examples/programs/nqueens.mhs", "b2567e160cf286042325b9df17924ec8");
    ("../examples/programs/parsec.mhs", "1b6c6405c3b91ec65e29d14a26d90682");
    ("../examples/programs/primes.mhs", "4ff480ff35e6235c56d40537f025af31");
    ("../examples/programs/regex.mhs", "1a71e9eb28772bc8a1411966c974bb12");
    ("../examples/programs/set.mhs", "c21beef3e4175ff61f9571d48d834a15");
    ("../examples/programs/stats.mhs", "10781386ef3bb835d723afa51a4947e7");
    ("../examples/programs/broken/classes.mhs", "1542e58170b6849aee1241459de6fbd9");
    ("../examples/programs/broken/mixed.mhs", "a6dc4b9dc0d73ca4cebfebc37c0bf5b8");
    ("../examples/programs/broken/parse_recovery.mhs",
     "e315eb063c09f04d15c5e613e6402dde");
    ("<prelude>", "a1347485091923223ae36832c3574516");
  ]

let golden_inputs () =
  let dir d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mhs")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat d f in
           (path, read_file path))
  in
  dir "../examples/programs"
  @ dir "../examples/programs/broken"
  @ [ ("<prelude>", Tc_prelude.Prelude.source) ]

let golden_case =
  Helpers.case "token dumps match the recorded digests" (fun () ->
      let actual =
        List.map
          (fun (name, src) ->
            (name, Digest.to_hex (Digest.string (dump ~file:name src))))
          (golden_inputs ())
      in
      Alcotest.(check (list (pair string string))) "digests" golden actual)

let tests =
  [
    ( "lexer",
      [
        check "identifiers" "foo Bar baz'" (strip_eof "foo Bar baz'");
        check "keywords" "let in where class instance data"
          (strip_eof "let in where class instance data");
        check "integers" "0 42 100" (strip_eof "0 42 100");
        Helpers.case "floats" (fun () ->
            match toks "1.5 2.0e3" with
            | [ Token.FLOAT a; Token.FLOAT b; Token.EOF ] ->
                Alcotest.(check (float 1e-9)) "a" 1.5 a;
                Alcotest.(check (float 1e-9)) "b" 2000.0 b
            | _ -> Alcotest.fail "expected two float tokens");
        check "operators" "== /= <= + ++ . $"
          (strip_eof "== /= <= + ++ . $");
        check "reserved operators" "= :: => -> \\ | @"
          (strip_eof "= :: => -> \\ | @");
        check "cons is a consym" "x : xs" (strip_eof "x : xs");
        Helpers.case "char literals" (fun () ->
            match toks {|'a' '\n' '\\'|} with
            | [ Token.CHAR 'a'; Token.CHAR '\n'; Token.CHAR '\\'; Token.EOF ] -> ()
            | _ -> Alcotest.fail "bad char literals");
        Helpers.case "string literals" (fun () ->
            match toks {|"hello\nworld"|} with
            | [ Token.STRING "hello\nworld"; Token.EOF ] -> ()
            | _ -> Alcotest.fail "bad string literal");
        check "line comment" "x -- a comment\ny" (strip_eof "x y");
        check "dashes operator is not a comment start" "x --> y"
          (strip_eof "x --> y");
        check "block comment" "x {- hi -} y" (strip_eof "x y");
        check "nested block comment" "x {- a {- b -} c -} y" (strip_eof "x y");
        check "underscore wildcard" "_ _x" (strip_eof "_ _x");
        check "negative-looking minus" "-5" (strip_eof "- 5");
        Helpers.case "unterminated string fails" (fun () ->
            match toks {|"abc|} with
            | exception Tc_support.Diagnostic.Error _ -> ()
            | _ -> Alcotest.fail "expected a lexer error");
        Helpers.case "unterminated comment fails" (fun () ->
            match toks "{- foo" with
            | exception Tc_support.Diagnostic.Error _ -> ()
            | _ -> Alcotest.fail "expected a lexer error");
        Helpers.case "positions recorded" (fun () ->
            match Lexer.tokenize ~file:"t" "ab\n  cd" with
            | [ a; b; _eof ] ->
                Alcotest.(check int) "a line" 1 a.loc.start_pos.line;
                Alcotest.(check int) "b line" 2 b.loc.start_pos.line;
                Alcotest.(check int) "b col" 3 b.loc.start_pos.col
            | _ -> Alcotest.fail "expected two tokens");
        golden_case;
        Helpers.case "an integer literal past max_int is a located error"
          (fun () ->
            List.iter
              (fun (src, digits) ->
                match Lexer.tokenize ~file:"t" src with
                | exception Tc_support.Diagnostic.Error d ->
                    Alcotest.(check string) src
                      (Printf.sprintf
                         "t:1:%d-%d: error: integer literal %s is out of \
                          range (largest is 4611686018427387903)"
                         (String.length src - String.length digits + 1)
                         (String.length src) digits)
                      (Tc_support.Diagnostic.to_string d)
                | _ -> Alcotest.failf "%S: expected a lexer error" src)
              [
                ("main = 99999999999999999999999", "99999999999999999999999");
                ("main = -9223372036854775808", "9223372036854775808");
                ("main = 4611686018427387904", "4611686018427387904");
              ];
            Alcotest.(check string) "max_int itself lexes"
              (strip_eof "4611686018427387903")
              (show (toks "4611686018427387903")));
        Helpers.case "lexing matrix.mhs allocates at most 24 words a token"
          (fun () ->
            let src = read_file "../examples/programs/matrix.mhs" in
            let before = Gc.minor_words () in
            let ts = Lexer.tokenize ~file:"matrix.mhs" src in
            let words = Gc.minor_words () -. before in
            let n = List.length ts in
            let per_token = words /. float_of_int n in
            Printf.printf "%d tokens, %.1f words a token\n" n per_token;
            if per_token > 24. then
              Alcotest.failf "%.1f minor words a token (at most 24)" per_token);
      ] );
    ( "layout",
      [
        check_layout "empty input yields an empty block" ""
          "{(layout) }(layout) <eof>";
        check_layout "top level opens a block" "x = 1"
          (strip_eof "{(layout) x = 1 }(layout)");
        check_layout "same column separates" "x = 1\ny = 2"
          (strip_eof "{(layout) x = 1 ;(layout) y = 2 }(layout)");
        check_layout "continuation line" "x = 1 +\n      2"
          (strip_eof "{(layout) x = 1 + 2 }(layout)");
        check_layout "where opens nested block" "f = y where\n  y = 1"
          (strip_eof "{(layout) f = y where {(layout) y = 1 }(layout) }(layout)");
        check_layout "let/in inline" "v = let x = 1 in x"
          (strip_eof "{(layout) v = let {(layout) x = 1 }(layout) in x }(layout)");
        check_layout "let multiline with in" "v = let x = 1\n        y = 2\n    in x"
          (strip_eof
             "{(layout) v = let {(layout) x = 1 ;(layout) y = 2 }(layout) in \
              x }(layout)");
        check_layout "explicit braces respected" "f = g where { a = 1; b = 2 }"
          (strip_eof
             "{(layout) f = g where { a = 1 ; b = 2 } }(layout)");
        check_layout "case alternatives" "f = case x of\n  1 -> a\n  2 -> b"
          (strip_eof
             "{(layout) f = case x of {(layout) 1 -> a ;(layout) 2 -> b \
              }(layout) }(layout)");
        check_layout "dedent closes nested blocks"
          "f = x where\n  g = y where\n    h = 1\nk = 2"
          (strip_eof
             "{(layout) f = x where {(layout) g = y where {(layout) h = 1 \
              }(layout) }(layout) ;(layout) k = 2 }(layout)");
      ] );
  ]
