(** Property-based tests (qcheck): invariants of contexts, unification, the
    prelude (against OCaml reference implementations), derived instances,
    and optimizer preservation under random pass sequences. *)

open Tc_support
module Ty = Tc_types.Ty
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval
module Pipeline = Typeclasses.Pipeline
module Opt = Tc_opt.Opt

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* An evaluation session: compile a library once, call functions on     *)
(* randomly generated core arguments.                                   *)
(* ------------------------------------------------------------------ *)

type session = { st : Eval.state; c : Pipeline.compiled }

let make_session src : session =
  let c = Pipeline.compile ~file:"prop.mhs" src in
  let cons = Eval.con_table_of_env c.env in
  let st =
    Eval.create_state ~budget:(Eval.Budget.fuel 100_000_000) cons
  in
  Eval.load_program st c.core;
  { st; c }

let nil = Core.Con (Ident.intern "[]")
let cons_e h t = Core.apps (Core.Con (Ident.intern ":")) [ h; t ]
let int_e n = Core.Lit (Tc_syntax.Ast.LInt n)
let list_e elts = List.fold_right cons_e elts nil
let int_list_e ns = list_e (List.map int_e ns)

let call (s : session) fn args : string =
  let e = Core.apps (Core.Var (Pipeline.ident s.c fn)) args in
  Eval.render s.st (Eval.eval_expr s.st e)

let render_int_list ns =
  "[" ^ String.concat ", " (List.map string_of_int ns) ^ "]"

let d name = Core.Var (Ident.intern name)

(* sessions are compiled once, lazily *)

let list_session =
  lazy
    (make_session
       {|
qsort :: Ord a => [a] -> [a]
qsort [] = []
qsort (x:xs) = qsort (filter (\y -> y <= x) xs) ++ [x] ++ qsort (filter (\y -> y > x) xs)

listEq :: [Int] -> [Int] -> Bool
listEq = (==)

listLe :: [Int] -> [Int] -> Bool
listLe = (<=)

main = 0
|})

let tree_session =
  lazy
    (make_session
       {|
data Tree = Leaf | Node Tree Int Tree deriving (Eq, Ord, Text)
treeEq :: Tree -> Tree -> Bool
treeEq a b = a == b
treeLe :: Tree -> Tree -> Bool
treeLe a b = a <= b
main = 0
|})

let opt_compiled =
  lazy
    (Pipeline.compile ~file:"opt-prop.mhs"
       {|
main = (qsort [5,1,4,2], sum (enumFromTo 1 10), str (Just True))
qsort :: Ord a => [a] -> [a]
qsort [] = []
qsort (x:xs) = qsort (filter (\y -> y <= x) xs) ++ [x] ++ qsort (filter (\y -> y > x) xs)
|})

let opt_reference = lazy (Pipeline.exec (Lazy.force opt_compiled)).rendered

(* ------------------------------------------------------------------ *)
(* Generators.                                                          *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck2.Gen.int_range (-50) 50
let int_list = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) small_int

type tree = Leaf | Node of tree * int * tree

let tree_gen : tree QCheck2.Gen.t =
  QCheck2.Gen.sized_size (QCheck2.Gen.int_range 0 12)
    (QCheck2.Gen.fix (fun self n ->
         if n = 0 then QCheck2.Gen.pure Leaf
         else
           QCheck2.Gen.oneof
             [
               QCheck2.Gen.pure Leaf;
               QCheck2.Gen.map3
                 (fun l v r -> Node (l, v, r))
                 (self (n / 2))
                 (QCheck2.Gen.int_range 0 5)
                 (self (n / 2));
             ]))

(* the tree session's constructors *)
let rec tree_expr = function
  | Leaf -> Core.Con (Pipeline.ident (Lazy.force tree_session).c "Leaf")
  | Node (l, v, r) ->
      Core.apps
        (Core.Con (Pipeline.ident (Lazy.force tree_session).c "Node"))
        [ tree_expr l; int_e v; tree_expr r ]

(* OCaml reference for the derived Ord on Tree: constructor order first
   (Leaf < Node), then lexicographic fields *)
let rec tree_le a b =
  match (a, b) with
  | Leaf, _ -> true
  | Node _, Leaf -> false
  | Node (l1, v1, r1), Node (l2, v2, r2) ->
      tree_lt l1 l2
      || (l1 = l2 && (v1 < v2 || (v1 = v2 && tree_le r1 r2)))

and tree_lt a b = tree_le a b && a <> b

(* ------------------------------------------------------------------ *)

let tests =
  [
    ( "properties-prelude",
      [
        prop "qsort agrees with List.sort" int_list (fun ns ->
            let s = Lazy.force list_session in
            call s "qsort" [ d "d$Ord$Int"; int_list_e ns ]
            = render_int_list (List.sort compare ns));
        prop "qsort is idempotent" int_list (fun ns ->
            let s = Lazy.force list_session in
            let sorted = List.sort compare ns in
            call s "qsort" [ d "d$Ord$Int"; int_list_e ns ]
            = call s "qsort" [ d "d$Ord$Int"; int_list_e sorted ]);
        prop "member agrees with List.mem"
          QCheck2.Gen.(pair small_int int_list)
          (fun (x, ns) ->
            let s = Lazy.force list_session in
            call s "member" [ d "d$Eq$Int"; int_e x; int_list_e ns ]
            = if List.mem x ns then "True" else "False");
        prop "reverse agrees with List.rev" int_list (fun ns ->
            let s = Lazy.force list_session in
            call s "reverse" [ int_list_e ns ] = render_int_list (List.rev ns));
        prop "sum agrees with fold_left (+)" int_list (fun ns ->
            let s = Lazy.force list_session in
            call s "sum" [ d "d$Num$Int"; int_list_e ns ]
            = string_of_int (List.fold_left ( + ) 0 ns));
        prop "length agrees" int_list (fun ns ->
            let s = Lazy.force list_session in
            call s "length" [ int_list_e ns ] = string_of_int (List.length ns));
        prop "take/drop split the list"
          QCheck2.Gen.(pair (int_range 0 20) int_list)
          (fun (n, ns) ->
            let s = Lazy.force list_session in
            let rec split i l =
              match (i, l) with
              | 0, rest -> ([], rest)
              | _, [] -> ([], [])
              | i, x :: rest ->
                  let a, b = split (i - 1) rest in
                  (x :: a, b)
            in
            let a, b = split n ns in
            call s "take" [ int_e n; int_list_e ns ] = render_int_list a
            && call s "drop" [ int_e n; int_list_e ns ] = render_int_list b);
        prop "instance Eq [Int] agrees with (=)"
          QCheck2.Gen.(pair int_list int_list)
          (fun (a, b) ->
            let s = Lazy.force list_session in
            call s "listEq" [ int_list_e a; int_list_e b ]
            = (if a = b then "True" else "False"));
        prop "instance Ord [Int] is lexicographic"
          QCheck2.Gen.(pair int_list int_list)
          (fun (a, b) ->
            let s = Lazy.force list_session in
            call s "listLe" [ int_list_e a; int_list_e b ]
            = (if compare a b <= 0 then "True" else "False"));
      ] );
    ( "properties-contexts",
      [
        prop "Context.add keeps the set sorted and duplicate-free"
          QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 5))
          (fun ids ->
            let names =
              List.map (fun i -> Ident.intern (Printf.sprintf "C%d" i)) ids
            in
            let ctx =
              List.fold_left
                (fun acc c -> Ty.Context.add c acc)
                Ty.Context.empty names
            in
            let rec sorted = function
              | a :: (b :: _ as rest) -> Ident.compare a b < 0 && sorted rest
              | _ -> true
            in
            sorted ctx
            && List.length ctx = List.length (List.sort_uniq Ident.compare names));
        prop "Context.union is commutative"
          QCheck2.Gen.(
            pair
              (list_size (int_range 0 6) (int_range 0 5))
              (list_size (int_range 0 6) (int_range 0 5)))
          (fun (a, b) ->
            let mk l =
              Ty.Context.of_list
                (List.map (fun i -> Ident.intern (Printf.sprintf "C%d" i)) l)
            in
            Ty.Context.union (mk a) (mk b) = Ty.Context.union (mk b) (mk a));
        prop "Context.union is idempotent"
          QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 5))
          (fun l ->
            let mk l =
              Ty.Context.of_list
                (List.map (fun i -> Ident.intern (Printf.sprintf "C%d" i)) l)
            in
            Ty.Context.union (mk l) (mk l) = mk l);
      ] );
    ( "properties-unify",
      [
        prop "unify t t succeeds" ~count:60 (QCheck2.Gen.int_range 0 100000)
          (fun seed ->
            let rec build depth s =
              let s = (s * 1103515245 + 12345) land 0x3FFFFFFF in
              if depth > 3 then Ty.int
              else
                match s mod 5 with
                | 0 -> Ty.int
                | 1 -> Ty.char
                | 2 -> Ty.list (build (depth + 1) (s / 7))
                | 3 ->
                    Ty.arrow (build (depth + 1) (s / 7)) (build (depth + 1) (s / 11))
                | _ ->
                    Ty.tuple
                      [ build (depth + 1) (s / 7); build (depth + 1) (s / 11) ]
            in
            let t = build 0 seed in
            let env = Tc_types.Class_env.create () in
            Tc_types.Unify.unify env ~loc:Loc.none t t;
            true);
        prop "a fresh variable takes any closed type" ~count:60
          (QCheck2.Gen.int_range 0 100000)
          (fun seed ->
            let rec build depth s =
              let s = (s * 48271) land 0x3FFFFFFF in
              if depth > 3 then Ty.float
              else
                match s mod 4 with
                | 0 -> Ty.float
                | 1 -> Ty.list (build (depth + 1) (s / 7))
                | 2 -> Ty.arrow (build (depth + 1) (s / 7)) Ty.int
                | _ -> Ty.unit
            in
            let t = build 0 seed in
            let env = Tc_types.Class_env.create () in
            let v = Ty.fresh ~level:1 () in
            Tc_types.Unify.unify env ~loc:Loc.none v t;
            Ty.to_string (Ty.prune v) = Ty.to_string t);
      ] );
    ( "properties-derived",
      [
        prop "derived Eq on trees is structural equality" ~count:80
          QCheck2.Gen.(pair tree_gen tree_gen)
          (fun (t1, t2) ->
            let s = Lazy.force tree_session in
            call s "treeEq" [ tree_expr t1; tree_expr t2 ]
            = (if t1 = t2 then "True" else "False"));
        prop "derived Eq is reflexive" ~count:40 tree_gen (fun t ->
            let s = Lazy.force tree_session in
            call s "treeEq" [ tree_expr t; tree_expr t ] = "True");
        prop "derived Ord matches the reference order" ~count:80
          QCheck2.Gen.(pair tree_gen tree_gen)
          (fun (t1, t2) ->
            let s = Lazy.force tree_session in
            call s "treeLe" [ tree_expr t1; tree_expr t2 ]
            = (if tree_le t1 t2 then "True" else "False"));
        prop "derived Ord is total" ~count:60
          QCheck2.Gen.(pair tree_gen tree_gen)
          (fun (t1, t2) ->
            let s = Lazy.force tree_session in
            call s "treeLe" [ tree_expr t1; tree_expr t2 ] = "True"
            || call s "treeLe" [ tree_expr t2; tree_expr t1 ] = "True");
      ] );
    ( "properties-optimizer",
      [
        prop "random pass sequences preserve results" ~count:40
          (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 5)
             (QCheck2.Gen.int_range 0 4))
          (fun pass_ids ->
            let passes =
              List.map
                (fun i ->
                  List.nth
                    [ Opt.Simplify; Opt.Inner_entry; Opt.Hoist; Opt.Specialise;
                      Opt.Dce ]
                    i)
                pass_ids
            in
            let c = Pipeline.optimize passes (Lazy.force opt_compiled) in
            (Pipeline.exec c).rendered = Lazy.force opt_reference);
      ] );
  ]
