(* The paper's running example (§2–§7): polymorphic, overloaded, extensible
   equality.

   Shows the exact artifacts the paper describes:
   - the qualified type inferred for `member`;
   - the dictionary-passing translation (member receives an == function);
   - context reduction: `member [1] xss` needs Eq [Int], which the instance
     `Eq a => Eq [a]` reduces to Eq Int;
   - the overloaded list dictionary capturing its element dictionary by
     partial application (the paper's eqList);
   - §8.8: the naive translation rebuilds `eqDList d` at every recursion
     step; hoisting + inner entry points build it once.

   Run with:  dune exec examples/equality.exe *)

open Typeclasses
module Core = Tc_core_ir.Core

let program =
  {|
-- §2: the class of equality types, and a function defined from it.
-- (Eq, the Int and list instances, and member itself also live in the
-- prelude; we define fresh names here to show their translations.)

data Shape = Circle Int | Square Int deriving (Eq, Text)

sameShape :: Shape -> Shape -> Bool
sameShape a b = a == b

-- the paper's member, at several instances
isMember :: Eq a => a -> [a] -> Bool
isMember x []     = False
isMember x (y:ys) = x == y || isMember x ys

deepMember :: Eq a => [[a]] -> Bool
deepMember xss = isMember (head xss) (tail xss)

main = ( isMember 2 [1,2,3]              -- Eq Int
       , isMember [1] [[2],[1],[3]]      -- Eq [Int]: context reduction
       , deepMember [[1],[2],[1]]
       , isMember (Circle 1) [Square 1, Circle 1]
       , sameShape (Circle 2) (Circle 2) )
|}

let show_binding (compiled : Pipeline.compiled) name =
  let id = Pipeline.ident compiled name in
  List.iter
    (fun g ->
      List.iter
        (fun (b : Core.bind) ->
          if Tc_support.Ident.equal b.b_name id then
            Fmt.pr "%a@.@." Tc_core_ir.Core_pp.pp_group g)
        (Core.binds_of_group g))
    compiled.Pipeline.core.p_binds

let () =
  let compiled = Pipeline.compile ~file:"equality.mhs" program in

  Fmt.pr "== Inferred types ==@.";
  List.iter
    (fun (name, scheme) ->
      Fmt.pr "  %s :: %s@." (Tc_support.Ident.text name)
        (Tc_types.Scheme.to_string scheme))
    compiled.user_schemes;

  Fmt.pr "@.== Dictionary translation of isMember ==@.";
  Fmt.pr "(compare §3: \"the implementation of member is simply@.";
  Fmt.pr " parametrized by the appropriate definition of equality\")@.@.";
  show_binding compiled "isMember";

  Fmt.pr "== The list instance's dictionary (the paper's eqList) ==@.";
  show_binding compiled "d$Eq$List";
  show_binding compiled "m$Eq$List$==";

  Fmt.pr "== main: call sites pass concrete dictionaries ==@.";
  show_binding compiled "main";

  let r = Pipeline.exec compiled in
  Fmt.pr "Result: %s@." r.rendered;
  Fmt.pr "  dictionary constructions: %d, method selections: %d@.@."
    r.counters.dict_constructions r.counters.selections;

  (* §8.8: compare dictionary construction counts on a deep recursion,
     naive vs hoisted translation. *)
  (* [chainMember] needs an Eq [a] dictionary inside its recursion: the
     naive translation rebuilds (d$Eq$List d) at every step, like the
     paper's doList example. *)
  let deep =
    {|
chainMember :: Eq a => a -> [[a]] -> Bool
chainMember x []       = False
chainMember x (ys:yss) = member [x] [ys] || chainMember x yss

main = chainMember (400 :: Int) (map (\n -> [n]) (enumFromTo 1 400))
|}
  in
  let naive = Pipeline.compile ~file:"deep.mhs" deep in
  let hoisted =
    Pipeline.optimize Tc_opt.Opt.[ Simplify; Inner_entry; Hoist ] naive
  in
  let rn = Pipeline.exec naive and rh = Pipeline.exec hoisted in
  Fmt.pr "== §8.8: repeated dictionary construction (list length 400) ==@.";
  Fmt.pr "  naive translation:    %d dictionary constructions@."
    rn.counters.dict_constructions;
  Fmt.pr "  hoisted + inner entry: %d dictionary constructions@."
    rh.counters.dict_constructions;
  assert (rn.rendered = rh.rendered)
