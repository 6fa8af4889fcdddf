(** Dictionary-conversion tests: properties of the translated core program
    (§4–§6) — well-formedness, direct calls at known types, dictionary
    layouts, operation counts. *)

open Helpers
module Core = Tc_core_ir.Core
module Pipeline = Typeclasses.Pipeline

let flat_opts =
  { Pipeline.default_options with strategy = Pipeline.Dicts_flat }

(* find a top-level binding's expression *)
let binding (c : Pipeline.compiled) name =
  let id = Pipeline.ident c name in
  let all = List.concat_map Core.binds_of_group c.core.p_binds in
  match List.find_opt (fun (b : Core.bind) -> Tc_support.Ident.equal b.b_name id) all with
  | Some b -> b.b_expr
  | None -> Alcotest.failf "no core binding '%s'" name

let rec count_nodes pred (e : Core.expr) =
  let n = ref (if pred e then 1 else 0) in
  Core.iter_sub (fun sub -> n := !n + count_nodes pred sub) e;
  !n

let count_sels = count_nodes (function Core.Sel _ -> true | _ -> false)
let count_mkdicts = count_nodes (function Core.MkDict _ -> true | _ -> false)

let count_lam_params (c : Pipeline.compiled) name =
  match binding c name with Core.Lam (vs, _) -> List.length vs | _ -> 0

let tests =
  [
    ( "translation",
      [
        case "core is lint-clean for a large program" (fun () ->
            (* compile runs the linter; reaching here is the assertion *)
            ignore
              (compile
                 {|
data T = A | B deriving (Eq, Ord, Text)
f :: (Ord a, Num b) => [a] -> b -> [Char]
f xs n = str (n + n) ++ str (maximum xs == minimum xs)
main = f [A, B] (3 :: Int)
|}));
        case "overloaded function gains one dictionary parameter" (fun () ->
            let c = compile "f x y = x == y\nmain = 0" in
            Alcotest.(check int) "params" 3 (count_lam_params c "f"));
        case "two contexts mean two dictionary parameters" (fun () ->
            let c = compile "f x y = (x == x, y + y)\nmain = 0" in
            Alcotest.(check int) "params" 4 (count_lam_params c "f"));
        case "unconstrained functions get no dictionaries" (fun () ->
            let c = compile "f x = (x, x)\nmain = 0" in
            Alcotest.(check int) "params" 1 (count_lam_params c "f"));
        case "method at a known type becomes a direct call (§6.3 case 2)"
          (fun () ->
            let c = compile "f :: Int -> Bool\nf n = n == n\nmain = 0" in
            let e = binding c "f" in
            Alcotest.(check int) "no selections" 0 (count_sels e);
            Alcotest.(check int) "no constructions" 0 (count_mkdicts e));
        case "method at the class variable selects from the dictionary"
          (fun () ->
            let c = compile "f x = x == x\nmain = 0" in
            Alcotest.(check int) "one selection" 1 (count_sels (binding c "f")));
        case "recursive calls pass dictionaries unchanged (§6.3)" (fun () ->
            let c =
              compile "mem x (y:ys) = x == y || mem x ys\nmem x [] = False\nmain = 0"
            in
            (* the recursive call must reference mem applied to its own
               dictionary parameter *)
            let e = binding c "mem" in
            match e with
            | Core.Lam (d :: _, _) ->
                let uses_d_in_call = ref false in
                let rec walk e =
                  (match Core.unfold_app e [] with
                   | Core.Var f, Core.Var d' :: _
                     when Tc_support.Ident.text f = "mem"
                          && Tc_support.Ident.equal d d' ->
                       uses_d_in_call := true
                   | _ -> ());
                  Core.iter_sub walk e
                in
                walk e;
                Alcotest.(check bool) "passes its dictionary" true !uses_d_in_call
            | _ -> Alcotest.fail "expected a lambda");
        case "instance context captured by partial application (§4)" (fun () ->
            (* member at [[Int]]: d$Eq$List (d$Eq$List d$Eq$Int) *)
            let c = compile "main = member [[1]] [[[1]]]" in
            let e = binding c "main" in
            let found = ref false in
            let rec walk e =
              (match Core.unfold_app e [] with
               | Core.Var f, [ arg ]
                 when Tc_support.Ident.text f = "d$Eq$List" -> (
                   match Core.unfold_app arg [] with
                   | Core.Var g, [ _ ] when Tc_support.Ident.text g = "d$Eq$List" ->
                       found := true
                   | _ -> ())
               | _ -> ());
              Core.iter_sub walk e
            in
            walk e;
            Alcotest.(check bool) "nested dictionary application" true !found);
        case "monomorphic code pays nothing with classes in scope (§9, E8)"
          (fun () ->
            let _, counters =
              run_counters
                {|
step :: Int -> Int
step x = x * 3 + 1
iter :: Int -> Int -> Int
iter n x = if n == 0 then x else iter (n - 1) (step x)
main = iter 100 1
|}
            in
            Alcotest.(check int) "no dictionary constructions" 0
              counters.dict_constructions;
            Alcotest.(check int) "no selections" 0 counters.selections);
      ] );
    ( "dictionary-layouts",
      [
        case "flat and nested layouts agree on results" (fun () ->
            let src =
              {|
f :: Ord a => [a] -> (Bool, a, a)
f xs = (head xs == last xs, maximum xs, minimum xs)
main = (f [3,1,2], f "ba", sum [1,2,3])
|}
            in
            Alcotest.(check string) "same result" (run src) (run ~opts:flat_opts src));
        case "flat layout reaches superclass methods in one selection"
          (fun () ->
            (* under Ord a, an == use selects from: nested = 2 hops,
               flat = 1 hop *)
            let src = "f x y = (x <= y, x == y)\nmain = 0" in
            let nested = compile src and flat = compile ~opts:flat_opts src in
            let sels_of c =
              let e = binding c "f" in
              let max_chain = ref 0 in
              let rec chain (e : Core.expr) =
                match e with Core.Sel (_, d) -> 1 + chain d | _ -> 0
              in
              let rec walk e =
                max_chain := max !max_chain (chain e);
                Core.iter_sub walk e
              in
              walk e;
              !max_chain
            in
            Alcotest.(check int) "nested needs a chain" 2 (sels_of nested);
            Alcotest.(check int) "flat needs one hop" 1 (sels_of flat));
        case "flat dictionaries are wider" (fun () ->
            let src = "f x y = x <= y\nmain = f (1::Int) 2" in
            let nested = compile src and flat = compile ~opts:flat_opts src in
            let width c =
              match binding c "d$Ord$Int" with
              | Core.MkDict (_, fields) -> List.length fields
              | Core.Let (Core.Rec [ { b_expr = Core.MkDict (_, fields); _ } ], _) ->
                  List.length fields
              | _ -> Alcotest.fail "expected a dictionary"
            in
            (* nested: 1 superclass + 7 methods; flat: 7 + 2 methods *)
            Alcotest.(check int) "nested width" 8 (width nested);
            Alcotest.(check int) "flat width" 9 (width flat));
        case "diamond superclass hierarchies deduplicate (both layouts)"
          (fun () ->
            (*      A
                   / \
                  B   C     flat slots of D must contain A's method once *)
            let src =
              {|
class A a where
  ma :: a -> Int
class A a => B a where
  mb :: a -> Int
class A a => C a where
  mc :: a -> Int
class (B a, C a) => D a where
  md :: a -> Int

instance A Int where
  ma x = 1
instance B Int where
  mb x = 2
instance C Int where
  mc x = 4
instance D Int where
  md x = 8

useAll :: D a => a -> Int
useAll x = ma x + mb x + mc x + md x

viaB :: B a => a -> Int
viaB = ma

fromD :: D a => a -> Int
fromD x = viaB x + useAll x

main = (useAll (0 :: Int), fromD (0 :: Int))
|}
            in
            let nested = run src and flat = run ~opts:flat_opts src in
            Alcotest.(check string) "nested" "(15, 16)" nested;
            Alcotest.(check string) "flat" "(15, 16)" flat);
        case "flat slot list has no duplicates in a diamond" (fun () ->
            let c =
              compile
                {|
class A a where
  ma :: a -> Int
class A a => B a where
  mb :: a -> Int
class A a => C a where
  mc :: a -> Int
class (B a, C a) => D a where
  md :: a -> Int
main = 0
|}
            in
            let slots =
              Tc_dicts.Layout.flat_slots c.env (Pipeline.ident c "D")
            in
            let names = List.map (fun (_, m) -> Tc_support.Ident.text m) slots in
            Alcotest.(check (list string)) "canonical order"
              [ "md"; "mb"; "ma"; "mc" ] names);
        case "superclass defaults work under both layouts" (fun () ->
            let src =
              {|
data T = T1 | T2 deriving (Eq, Ord, Text)
main = (T1 < T2, max T1 T2, T1 >= T1)
|}
            in
            Alcotest.(check string) "agree" (run src) (run ~opts:flat_opts src));
      ] );
    ( "overloaded-methods",
      [
        (* §8.5: a method with context beyond the class variable *)
        case "method with extra context checks and runs" (fun () ->
            let out =
              run
                {|
class Container f where
  contains :: Eq a => f -> [a] -> Bool

data Probe = Probe Int

instance Container Probe where
  contains (Probe n) xs = length xs == n

main = (contains (Probe 2) [True, False], contains (Probe 1) "xy")
|}
            in
            Alcotest.(check string) "result" "(True, False)" out);
        case "extra-context dictionaries flow to the implementation" (fun () ->
            let out =
              run
                {|
class Searchable s where
  findIn :: Eq a => s -> a -> [a] -> Bool

data Fwd = Fwd
data Bwd = Bwd

instance Searchable Fwd where
  findIn s x xs = member x xs

instance Searchable Bwd where
  findIn s x xs = member x (reverse xs)

search :: (Searchable s, Eq a) => s -> a -> [a] -> Bool
search = findIn

main = (search Fwd 1 [1,2], search Bwd 'z' "xyz")
|}
            in
            Alcotest.(check string) "result" "(True, True)" out);
      ] );
  ]
