(** Unification, context propagation/reduction and class-environment tests
    (paper §4–§5), exercised at the library level. *)

open Tc_support
module Ty = Tc_types.Ty
module Unify = Tc_types.Unify
module Class_env = Tc_types.Class_env
module Static = Tc_types.Static
module Scheme = Tc_types.Scheme
module Parser = Tc_syntax.Parser
module Fixity = Tc_syntax.Fixity

(* A small static environment: Eq, Ord (superclass Eq), Num (supers Eq,
   Text), Text; instances for Int and lists/pairs. *)
let env () =
  let src =
    {|
data Bool = False | True
class Eq a where
  (==) :: a -> a -> Bool
class Eq a => Ord a where
  (<=) :: a -> a -> Bool
class Text a where
  str :: a -> [Char]
class (Eq a, Text a) => Num a where
  (+) :: a -> a -> a
instance Eq Int where
  x == y = True
instance Ord Int where
  x <= y = True
instance Text Int where
  str x = []
instance Num Int where
  x + y = x
instance Eq a => Eq [a] where
  x == y = True
instance Text a => Text [a] where
  str x = []
instance (Eq a, Eq b) => Eq (a, b) where
  x == y = True
|}
  in
  let prog =
    Parser.parse_program ~sink:(Tc_support.Diagnostic.Sink.raising ())
      ~file:"env" src
  in
  let prog, _ = Fixity.resolve_program prog in
  (Static.process prog).env

let eq = Ident.intern "Eq"
let ord = Ident.intern "Ord"
let num = Ident.intern "Num"
let text = Ident.intern "Text"

let fresh ?context () = Ty.fresh_var ?context ~level:1 ()

let ty_str t = Ty.to_string_qualified t

let case = Helpers.case

let unify_ok env a b = Unify.unify env ~loc:Loc.none a b

let expect_unify_error env a b needle =
  match Unify.unify env ~loc:Loc.none a b with
  | exception Diagnostic.Error d ->
      if not (Helpers.contains ~needle (Diagnostic.to_string d)) then
        Alcotest.failf "wrong unification error: %s" (Diagnostic.to_string d)
  | () -> Alcotest.fail "expected a unification error"

let tests =
  [
    ( "unify",
      [
        case "variable instantiation" (fun () ->
            let env = env () in
            let a = fresh () in
            unify_ok env (Ty.TVar a) Ty.int;
            Alcotest.(check string) "type" "Int" (ty_str (Ty.TVar a)));
        case "structural unification" (fun () ->
            let env = env () in
            let a = fresh () and b = fresh () in
            unify_ok env
              (Ty.list (Ty.arrow (Ty.TVar a) Ty.int))
              (Ty.list (Ty.arrow Ty.char (Ty.TVar b)));
            Alcotest.(check string) "a" "Char" (ty_str (Ty.TVar a));
            Alcotest.(check string) "b" "Int" (ty_str (Ty.TVar b)));
        case "occurs check" (fun () ->
            let env = env () in
            let a = fresh () in
            expect_unify_error env (Ty.TVar a) (Ty.list (Ty.TVar a)) "occurs");
        case "constructor clash" (fun () ->
            let env = env () in
            expect_unify_error env Ty.int Ty.char "mismatch");
        case "arity respected by kinds" (fun () ->
            let env = env () in
            expect_unify_error env (Ty.list Ty.int) Ty.int "mismatch");
        case "var-var merges contexts" (fun () ->
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            let b = fresh ~context:[ text ] () in
            unify_ok env (Ty.TVar a) (Ty.TVar b);
            let merged = Ty.prune (Ty.TVar a) in
            Alcotest.(check string) "context union" "(Eq a, Text a) => a"
              (ty_str merged));
      ] );
    ( "context-reduction",
      [
        case "paper example: Eq a ~ [Int]" (fun () ->
            (* unifying (Eq a) => a with [Integer] consults the instance
               declarations and leaves no residual constraints (§5) *)
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            unify_ok env (Ty.TVar a) (Ty.list Ty.int);
            Alcotest.(check string) "no residual context" "[Int]"
              (ty_str (Ty.prune (Ty.TVar a))));
        case "paper example: Eq a ~ [b] leaves Eq b" (fun () ->
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            let b = fresh () in
            unify_ok env (Ty.TVar a) (Ty.list (Ty.TVar b));
            Alcotest.(check string) "context propagated" "Eq a => [a]"
              (ty_str (Ty.prune (Ty.TVar a))));
        case "missing instance is a type error" (fun () ->
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            expect_unify_error env (Ty.TVar a) (Ty.arrow Ty.int Ty.int)
              "no instance");
        case "pair instance distributes per argument" (fun () ->
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            let x = fresh () and y = fresh () in
            unify_ok env (Ty.TVar a) (Ty.tuple [ Ty.TVar x; Ty.TVar y ]);
            Alcotest.(check string) "both constrained"
              "(Eq a, Eq b) => (a, b)"
              (ty_str (Ty.prune (Ty.TVar a))));
        case "nested reduction" (fun () ->
            let env = env () in
            let a = fresh ~context:[ eq ] () in
            let b = fresh () in
            unify_ok env (Ty.TVar a) (Ty.list (Ty.list (Ty.TVar b)));
            Alcotest.(check string) "through two instances" "Eq a => [[a]]"
              (ty_str (Ty.prune (Ty.TVar a))));
      ] );
    ( "superclasses",
      [
        case "closure" (fun () ->
            let env = env () in
            let closure = Class_env.supers_closure env num in
            let names = List.map Ident.text closure |> List.sort compare in
            Alcotest.(check (list string)) "Num's supers" [ "Eq"; "Text" ] names);
        case "implies is reflexive-transitive" (fun () ->
            let env = env () in
            Alcotest.(check bool) "Ord => Eq" true (Class_env.implies env ord eq);
            Alcotest.(check bool) "Eq !=> Ord" false (Class_env.implies env eq ord);
            Alcotest.(check bool) "refl" true (Class_env.implies env eq eq));
        case "context reduced by superclass absorption (§8.1)" (fun () ->
            let env = env () in
            let ctx =
              Class_env.context_add env (Ty.Context.of_list [ eq ]) ord
            in
            Alcotest.(check (list string)) "Eq absorbed by Ord" [ "Ord" ]
              (List.map Ident.text ctx));
        case "adding an implied class is a no-op" (fun () ->
            let env = env () in
            let ctx =
              Class_env.context_add env (Ty.Context.of_list [ num ]) eq
            in
            Alcotest.(check (list string)) "still just Num" [ "Num" ]
              (List.map Ident.text ctx));
      ] );
    ( "schemes",
      [
        case "instantiation is fresh" (fun () ->
            let a = Ty.fresh_var ~context:[ eq ] ~level:Ty.generic_level () in
            let s = { Scheme.vars = [ a ]; ty = Ty.arrow (Ty.TVar a) (Ty.TVar a) } in
            let t1, f1 = Scheme.instantiate ~level:1 s in
            let t2, _f2 = Scheme.instantiate ~level:1 s in
            let env = env () in
            (* instantiations do not interfere *)
            unify_ok env t1 (Ty.arrow Ty.int Ty.int);
            Alcotest.(check string) "t2 untouched" "Eq a => a -> a" (ty_str t2);
            match f1 with
            | [ fv ] ->
                Alcotest.(check string) "context copied" "Int"
                  (ty_str (Ty.prune (Ty.TVar fv)))
            | _ -> Alcotest.fail "expected one fresh variable");
        case "dictionary order follows quantifier order" (fun () ->
            let a = Ty.fresh_var ~context:[ num ] ~level:Ty.generic_level () in
            let b = Ty.fresh_var ~context:[ text ] ~level:Ty.generic_level () in
            let s =
              { Scheme.vars = [ a; b ]; ty = Ty.arrow (Ty.TVar a) (Ty.TVar b) }
            in
            Alcotest.(check (list (pair string int)))
              "context order"
              [ ("Num", 0); ("Text", 1) ]
              (List.map (fun (c, i) -> (Ident.text c, i)) (Scheme.context s)));
      ] );
    ( "read-only",
      [
        case "read-only variable refuses instantiation" (fun () ->
            let env = env () in
            let a = Ty.fresh_var ~read_only:true ~level:1 () in
            expect_unify_error env (Ty.TVar a) Ty.int "rigid");
        case "read-only variable refuses new context" (fun () ->
            let env = env () in
            let ro = Ty.fresh_var ~read_only:true ~level:1 () in
            let flex = Ty.fresh_var ~context:[ eq ] ~level:1 () in
            expect_unify_error env (Ty.TVar flex) (Ty.TVar ro) "too general");
        case "read-only context admits implied classes" (fun () ->
            let env = env () in
            let ro = Ty.fresh_var ~read_only:true ~context:[ ord ] ~level:1 () in
            let flex = Ty.fresh_var ~context:[ eq ] ~level:1 () in
            (* Eq is implied by the declared Ord, so this is fine *)
            unify_ok env (Ty.TVar flex) (Ty.TVar ro));
      ] );
  ]
