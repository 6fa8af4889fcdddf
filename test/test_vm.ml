(** Differential tests: the bytecode VM against the tree evaluator.

    For every example program and a small inline corpus, across
    strategy (dict, dict-flat, tags) × optimization (none, all) ×
    evaluation mode (lazy, strict), both backends must print the same
    result and report identical dictionary counters
    (dict_constructions, dict_fields, selections — plus applications,
    prim_calls and tag_dispatches, which also agree by construction).
    Error programs must fail with the same exception and message.
    The VM additionally honours its step and frame budgets, reported
    as the classified [Budget.Exhausted]. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Counters = Tc_eval.Counters
module Eval = Tc_eval.Eval
module Budget = Tc_resilience.Budget

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program name =
  read_file (Filename.concat "../examples/programs" (name ^ ".mhs"))

let flat_opts =
  { Pipeline.default_options with strategy = Pipeline.Dicts_flat }

(* The counters that must agree exactly between backends. *)
let signature (c : Counters.t) : int list =
  [
    c.dict_constructions; c.dict_fields; c.selections; c.applications;
    c.prim_calls; c.tag_dispatches;
  ]

let check_parity ?(what = "") (c : Pipeline.compiled) mode =
  let t = Pipeline.exec ~backend:`Tree ~mode ~budget:(Pipeline.Budget.fuel 50_000_000) c in
  let v = Pipeline.exec ~backend:`Vm ~mode ~budget:(Pipeline.Budget.fuel 500_000_000) c in
  Alcotest.(check string)
    (what ^ " rendered result") t.Pipeline.rendered v.Pipeline.rendered;
  Alcotest.(check (list int))
    (what ^ " counters [dicts; fields; sels; apps; prims; tags]")
    (signature t.Pipeline.counters)
    (signature v.Pipeline.counters)

(* ------------------------------------------------------------------ *)
(* Example programs: full matrix.                                      *)
(* ------------------------------------------------------------------ *)

let examples =
  [
    ("matrix", `Both); ("set", `Both); ("calculator", `Both);
    ("nqueens", `Both); ("parsec", `Both); ("regex", `Both);
    ("stats", `Both); ("primes", `Lazy_only);
  ]

let example_cases =
  List.concat_map
    (fun (name, modes) ->
      let src = lazy (program name) in
      List.concat_map
        (fun (sname, opts) ->
          List.map
            (fun (pname, passes) ->
              case
                (Printf.sprintf "%s %s %s" name sname pname)
                (fun () ->
                  let c = compile ~opts (Lazy.force src) in
                  let c = Pipeline.optimize passes c in
                  check_parity ~what:"lazy" c `Lazy;
                  match modes with
                  | `Both -> check_parity ~what:"strict" c `Strict
                  | `Lazy_only -> ()))
            [ ("opt=none", []); ("opt=all", Tc_opt.Opt.all) ])
        [ ("dict", Pipeline.default_options); ("dict-flat", flat_opts) ]
      @ [
          (* the §3 baseline runs on both backends too *)
          case (name ^ " tags") (fun () ->
              match
                Pipeline.compile
                  ~opts:{ Pipeline.default_options with
                          strategy = Pipeline.Tags }
                  ~file:"test.mhs" (Lazy.force src)
              with
              | c -> check_parity ~what:"tags" c `Lazy
              | exception Tc_support.Diagnostic.Error _ ->
                  (* some examples legitimately need dictionaries *)
                  ());
        ])
    examples

(* ------------------------------------------------------------------ *)
(* Inline corpus: targeted language features.                          *)
(* ------------------------------------------------------------------ *)

let corpus =
  [
    ( "superclass and defaults",
      {|
class MyEq a where
  eq :: a -> a -> Bool

class MyEq a => MyOrd a where
  lte :: a -> a -> Bool
  gt :: a -> a -> Bool
  gt x y = if lte x y then False else True

instance MyEq Int where
  eq = (==)

instance MyOrd Int where
  lte = (<=)

biggest :: MyOrd a => [a] -> a -> a
biggest [] b = b
biggest (x:xs) b = biggest xs (if gt x b then x else b)

main = (biggest [3,1,4,1,5] 0, eq (2 :: Int) 2)
|} );
    ( "dictionaries over nested lists",
      {|
elemOf :: Eq a => a -> [a] -> Bool
elemOf x [] = False
elemOf x (y:ys) = x == y || elemOf x ys

main = ( elemOf [1,2] [[0],[1,2],[3]]
       , elemOf "ab" ["cd", "ab"]
       , elemOf (1, 'x') [(2, 'y'), (1, 'x')] )
|} );
    ( "return-type overloading via literals",
      {|
double :: Num a => a -> a
double x = x + x

main = (double 21, double 1.25, double (3 :: Int))
|} );
    ( "case on literals with default",
      {|
describe :: Int -> [Char]
describe 0 = "zero"
describe 1 = "one"
describe n = "many"

main = (describe 0, describe 1, describe 7, case 'x' of { 'y' -> 0; _ -> 1 })
|} );
    ( "over- and partial application",
      {|
add :: Int -> Int -> Int
add x y = x + y

compose f g x = f (g x)

main = ( (\x -> \y -> x + y) 3 4
       , map (add 10) [1,2,3]
       , compose (add 1) (add 2) 5 )
|} );
    ( "mutual recursion in a letrec",
      {|
main =
  let isEven n = if n == 0 then True else isOdd (n - 1)
      isOdd n = if n == 0 then False else isEven (n - 1)
  in (isEven 10, isOdd 7, take 5 fibs)
  where fibs = 1 : 1 : zipWith (+) fibs (tail fibs)
|} );
    ( "laziness: infinite structures",
      {|
nats :: [Int]
nats = 0 : map (\n -> n + 1) nats

main = (take 5 nats, head (filter (\n -> n > 10) nats))
|} );
  ]

let corpus_cases =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun (sname, opts, passes) ->
          case
            (Printf.sprintf "corpus: %s (%s)" name sname)
            (fun () ->
              let c = compile ~opts src in
              let c = Pipeline.optimize passes c in
              check_parity ~what:"lazy" c `Lazy))
        [
          ("dict", Pipeline.default_options, []);
          ("dict-flat", flat_opts, []);
          ("dict opt", Pipeline.default_options, Tc_opt.Opt.all);
        ])
    corpus

(* ------------------------------------------------------------------ *)
(* Error parity: same exception, same message, both backends.          *)
(* ------------------------------------------------------------------ *)

let outcome f =
  match f () with
  | (r : Pipeline.result) -> "ok: " ^ r.Pipeline.rendered
  | exception Eval.User_error m -> "user error: " ^ m
  | exception Eval.Pattern_fail m -> "pattern fail: " ^ m
  | exception Eval.Runtime_error m -> "runtime error: " ^ m
  | exception Budget.Exhausted { resource; _ } ->
      "exhausted: " ^ Budget.resource_name resource

let error_programs =
  [
    ("user error", {|main = if True then error "boom" else (0 :: Int)|});
    ( "pattern fail",
      {|
firstOdd :: [Int] -> Int
firstOdd (x:xs) = if x == 1 then x else firstOdd xs
main = firstOdd [2, 4, 6]
|} );
    ( "error inside laziness",
      {|main = take 3 (1 : 2 : 3 : error "tail") |} );
  ]

let error_cases =
  List.map
    (fun (name, src) ->
      case ("errors: " ^ name) (fun () ->
          let c = compile src in
          let t = outcome (fun () -> Pipeline.exec ~backend:`Tree c) in
          let v = outcome (fun () -> Pipeline.exec ~backend:`Vm c) in
          Alcotest.(check string) name t v))
    error_programs

(* ------------------------------------------------------------------ *)
(* Budgets: fuel and the frame-stack runaway guard.                    *)
(* ------------------------------------------------------------------ *)

let deep_src =
  {|
count :: Int -> Int
count n = if n == 0 then 0 else 1 + count (n - 1)
main = count 50000
|}

let loop_src =
  {|
loop :: Int -> Int -> Int
loop acc n = if n == 0 then acc else loop (acc + n) (n - 1)
main = loop 0 100000
|}

let budget_cases =
  [
    case "deep non-tail recursion completes within the default budget"
      (fun () ->
        let c = compile deep_src in
        let r = Pipeline.exec ~backend:`Vm c in
        Alcotest.(check string) "result" "50000" r.Pipeline.rendered);
    case "frame budget reports deep recursion as classified exhaustion"
      (fun () ->
        let c = compile deep_src in
        let budget = { Budget.unlimited with frames = 1_000 } in
        match Pipeline.exec ~backend:`Vm ~budget c with
        | _ -> Alcotest.fail "expected Exhausted from the frame budget"
        | exception Budget.Exhausted { resource; limit; _ } ->
            Alcotest.(check string)
              "resource" "frames" (Budget.resource_name resource);
            Alcotest.(check int) "limit" 1_000 limit);
    case "step budget raises classified exhaustion" (fun () ->
        let c = compile deep_src in
        match Pipeline.exec ~backend:`Vm ~budget:(Budget.fuel 1_000) c with
        | _ -> Alcotest.fail "expected Exhausted"
        | exception Budget.Exhausted { resource; _ } ->
            Alcotest.(check string)
              "resource" "steps" (Budget.resource_name resource));
    case "tail calls run in constant frame space" (fun () ->
        (* 100k iterations under a 1k frame budget: only possible if
           TAILCALL replaces the frame instead of growing the stack *)
        let c = compile loop_src in
        let budget = { Budget.unlimited with frames = 1_000 } in
        let r = Pipeline.exec ~backend:`Vm ~mode:`Strict ~budget c in
        Alcotest.(check string) "result" "5000050000" r.Pipeline.rendered);
  ]

(* ------------------------------------------------------------------ *)
(* The disassembler names the dictionary instructions.                 *)
(* ------------------------------------------------------------------ *)

let disasm_cases =
  [
    case "disassembly spells out MKDICT/DICTSEL/TAILCALL" (fun () ->
        let c =
          compile
            {|
elemOf :: Eq a => a -> [a] -> Bool
elemOf x [] = False
elemOf x (y:ys) = x == y || elemOf x ys
main = elemOf [1] [[2], [1]]
|}
        in
        let text = Fmt.str "%a" Tc_vm.Bytecode.pp_program (Pipeline.bytecode c) in
        List.iter
          (fun needle ->
            if not (contains ~needle text) then
              Alcotest.failf "disassembly does not mention %s" needle)
          [ "MKDICT"; "DICTSEL"; "TAILCALL"; "SWITCH"; "proto" ]);
  ]

(* ------------------------------------------------------------------ *)
(* The shared runtime (Tc_eval.Runtime): one renderer, one primitive    *)
(* table, agreeing with the checker's.                                 *)
(* ------------------------------------------------------------------ *)

let runtime_cases =
  [
    case "a 100,000-character string renders in linear time" (fun () ->
        let n = 100_000 in
        let c = compile (Printf.sprintf "main = replicate %d (chr 97)" n) in
        let expected = Printf.sprintf "%S" (String.make n 'a') in
        List.iter
          (fun (name, backend) ->
            let t0 = Tc_support.Mono.now_s () in
            let r = Pipeline.exec ~backend c in
            let secs = Tc_support.Mono.now_s () -. t0 in
            Alcotest.(check string) (name ^ " rendered") expected r.Pipeline.rendered;
            if secs >= 2.0 then
              Alcotest.failf "%s: rendering took %.2f s (limit 2 s)" name secs)
          [ ("tree", `Tree); ("vm", `Vm) ]);
    case "runtime primitives agree with the checker's" (fun () ->
        let module Prims = Tc_infer.Prims in
        let names l = List.sort compare (List.map Tc_support.Ident.text l) in
        Alcotest.(check (list string))
          "primitive names"
          (names Prims.names)
          (names (List.map fst Eval.primitives));
        let env = (compile "main = 0").Pipeline.env in
        let schemes = Prims.schemes env in
        List.iter
          (fun (id, (p : Eval.prim)) ->
            let expected =
              match List.assoc_opt id schemes with
              | Some (sc : Tc_types.Scheme.t) ->
                  List.length (fst (Tc_types.Ty.unfold_arrow sc.ty))
              | None ->
                  Alcotest.(check string) "the only primitive without a scheme"
                    "primTypeTag" p.pr_name;
                  1
            in
            Alcotest.(check int) (p.pr_name ^ " arity") expected p.pr_arity)
          Eval.primitives);
  ]

let tests =
  [
    ("vm-differential", example_cases);
    ("vm-corpus", corpus_cases @ error_cases);
    ("vm-budgets", budget_cases @ disasm_cases);
    ("runtime", runtime_cases);
  ]
