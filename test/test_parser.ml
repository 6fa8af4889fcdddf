(** Parser and fixity-resolution tests: parse then pretty-print and compare
    against the expected rendering. *)

open Tc_syntax

let parse src =
  Parser.parse_program ~sink:(Tc_support.Diagnostic.Sink.raising ()) ~file:"t"
    src

let parse_pp src =
  let prog = parse src in
  let prog, _ = Fixity.resolve_program prog in
  Fmt.str "%a" Ast_pp.pp_program prog

let parse_expr_pp src =
  let e = Parser.parse_expression ~file:"t" src in
  let env = Fixity.builtin in
  Fmt.str "%a" Ast_pp.pp_expr (Fixity.expr env e)

let check name src expected =
  Helpers.case name (fun () ->
      Alcotest.(check string) name expected (parse_pp src))

let check_expr name src expected =
  Helpers.case name (fun () ->
      Alcotest.(check string) name expected (parse_expr_pp src))

let check_fails name src =
  Helpers.case name (fun () ->
      match parse src with
      | exception Tc_support.Diagnostic.Error _ -> ()
      | _ -> Alcotest.fail "expected a parse error")

(* A young initial value makes [Array.make] above 256 words run a minor
   collection first; the token array must not be built from one. The
   corpus programs are small enough that lexing and parsing one allocate
   well under a minor heap, so any collection here is a forced one. *)
let no_forced_minor_gc name =
  Helpers.case (name ^ " parses without a minor collection") (fun () ->
      let src = Test_programs.program name in
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      ignore (parse src);
      let after = (Gc.quick_stat ()).Gc.minor_collections in
      Alcotest.(check int) "minor collections" 0 (after - before))

let tests =
  [
    ( "parser-gc",
      List.map (fun (name, _, _) -> no_forced_minor_gc name)
        Test_programs.golden );
    ( "parser-expr",
      [
        check_expr "application binds tighter than operators" "f x + g y"
          "+ (f x) (g y)";
        check_expr "left associative" "1 - 2 - 3" "- (- 1 2) 3";
        check_expr "right associative" "a ++ b ++ c" "++ a (++ b c)";
        check_expr "precedence" "1 + 2 * 3" "+ 1 (* 2 3)";
        check_expr "cons chains right" "1 : 2 : []" ": 1 (: 2 [])";
        check_expr "comparison vs arithmetic" "a + 1 == b" "== (+ a 1) b";
        check_expr "backquoted operator" "x `elem` xs" "elem x xs";
        check_expr "unary minus" "- x + y" "+ (- x) y";
        check_expr "lambda swallows operators" "\\x -> x + 1"
          "\\x -> + x 1";
        check_expr "if-then-else" "if a then 1 else 2" "if a then 1 else 2";
        check_expr "operator section left" "(x +)" "(x +)";
        check_expr "operator section right" "(+ x)" "(+ x)";
        check_expr "operator reference" "(++)" "++";
        check_expr "annotation" "x :: Int" "(x :: Int)";
        check_expr "qualified annotation" "f :: Eq a => a -> Bool"
          "(f :: Eq a => a -> Bool)";
        check_expr "tuples" "(1, 2, 3)" "(1, 2, 3)";
        check_expr "unit" "()" "()";
        check_expr "list sugar" "[1, 2]" "[1, 2]";
        check_expr "case with guards"
          "case x of { y | y == 1 -> a | otherwise -> b }"
          "case x of {y | == y 1 -> a | otherwise -> b}";
        check_expr "let in expression" "let { x = 1 } in x + x"
          "let {x = 1} in + x x";
      ] );
    ( "parser-decl",
      [
        check "function equations" "f 0 = 1\nf n = n"
          "f 0 = 1\nf n = n";
        check "infix definition" "x <+> y = x" "<+> x y = x";
        check "operator binding" "(==>) a b = b" "==> a b = b";
        check "variable operator binding" "f = (+)" "f = +";
        check "signature" "f :: Eq a => a -> Bool\nf x = True"
          "f :: Eq a => a -> Bool\nf x = True";
        check "multi-name signature" "f, g :: Int\nf = 1\ng = 2"
          "f, g :: Int\nf = 1\ng = 2";
        check "guards and where" "f x | x == 0 = y where y = 1"
          "f x | == x 0 = y where {y = 1}";
        check "data declaration" "data T a = A a Int | B"
          "data T a = A a Int | B";
        check "data with deriving" "data C = R | G deriving (Eq, Ord)"
          "data C = R | G deriving (Eq, Ord)";
        check "type synonym" "type S a = [(a, Int)]" "type S a = [(a, Int)]";
        check "class with default" "class Eq a where\n  (==) :: a -> a -> Bool"
          "class Eq a where {== :: a -> a -> Bool}";
        check "class with superclass" "class Eq a => Ord a where\n  (<=) :: a -> a -> Bool"
          "class (Eq a) => Ord a where {<= :: a -> a -> Bool}";
        check "instance with context"
          "instance (Eq a, Eq b) => Eq (a, b) where\n  p == q = True"
          "instance (Eq a, Eq b) => Eq (a, b) where {== p q = True}";
        check "fixity declaration" "infixr 5 ++, +++" "infixr 5 ++, +++";
        check "pattern binding" "(a, b) = p" "(a, b) = p";
        check "as pattern" "f all@(x:xs) = all" "f all@(x : xs) = all";
        check "wildcard and literals" "f _ 'x' \"s\" = 1"
          "f _ 'x' \"s\" = 1";
        check "negative literal pattern" "f (-1) = 0" "f -1 = 0";
      ] );
    ( "parser-errors",
      [
        check_fails "missing rhs" "f x =";
        check_fails "unbalanced paren" "f = (1 + 2";
        check_fails "bad fixity level" "infixl 12 +";
        check_fails "class without variable" "class Eq where";
        check_fails "stray operator" "f = + +";
        Helpers.case "nonassoc operators need parens" (fun () ->
            match parse_pp "f = 1 == 2 == 3" with
            | exception Tc_support.Diagnostic.Error d ->
                if
                  not
                    (Helpers.contains ~needle:"ambiguous"
                       (Tc_support.Diagnostic.to_string d))
                then Alcotest.fail "wrong error"
            | _ -> Alcotest.fail "expected a fixity error");
        Helpers.case "mixed same-precedence associativity rejected" (fun () ->
            (* custom operators with equal precedence but different assoc *)
            match parse_pp "infixl 5 <<\ninfixr 5 >>\nf = a << b >> c" with
            | exception Tc_support.Diagnostic.Error _ -> ()
            | _ -> Alcotest.fail "expected a fixity error");
      ] );
  ]
