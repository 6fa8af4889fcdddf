(* The worked examples of paper §7 ("Examples"), reproduced end to end.

   §7 walks two programs through type-variable instantiation, placeholder
   insertion, unification, and placeholder resolution. This example feeds
   the same programs through our checker and prints the artifacts the
   paper draws as trees: the inferred qualified type and the final
   dictionary-converted code.

   Run with:  dune exec examples/paper_examples.exe *)

open Typeclasses
module Core = Tc_core_ir.Core

let show_binding (c : Pipeline.compiled) name =
  let id = Pipeline.ident c name in
  List.iter
    (fun g ->
      List.iter
        (fun (b : Core.bind) ->
          if Tc_support.Ident.equal b.b_name id then
            Fmt.pr "%a@." Tc_core_ir.Core_pp.pp_group g)
        (Core.binds_of_group g))
    c.Pipeline.core.p_binds

let types (c : Pipeline.compiled) =
  List.iter
    (fun (n, s) ->
      Fmt.pr "  %s :: %s@." (Tc_support.Ident.text n)
        (Tc_types.Scheme.to_string s))
    c.user_schemes

let () =
  (* -------- first example --------------------------------------- *)
  (* paper:   class Num a where (+) :: a -> a -> a
              f = \x -> x + f x
     "The type in the placeholder associated with + is part of the
      parameter environment. This indicates that a dictionary passed into
      f will contain the implementation of + appropriate for the
      parameter x. At execution time, the sel+ function will retrieve
      this addition function from the dictionary."                       *)
  Fmt.pr "== §7, first example:  f = \\x -> x + f x ==@.@.";
  Fmt.pr "(written as a function binding, f x = ..., since a simple pattern@.\
          binding would trigger the §8.7 monomorphism restriction)@.@.";
  let c1 = Pipeline.compile ~file:"paper1.mhs" "f x = x + f x\nmain = 0" in
  Fmt.pr "inferred type:@.";
  types c1;
  Fmt.pr "@.translation (dictionary bound by \\d, + selected from it,@.\
          the recursive call passing d unchanged — the paper's first,@.\
          simpler translation):@.@.";
  show_binding c1 "f";

  (* the paper then notes: "A better choice would have been to create an
     inner entry to f after d is bound and use this for the recursive
     call to avoid passing d repeatedly." — our Inner_entry pass: *)
  let c1' = Pipeline.optimize Tc_opt.Opt.[ Simplify; Inner_entry ] c1 in
  Fmt.pr "@.after the inner-entry transformation (the paper's \"better \
          choice\"):@.@.";
  show_binding c1' "f";

  (* -------- second example -------------------------------------- *)
  (* paper:   g = \x -> print (x, length x)
     with Text instances for pairs, Int and lists. "The placeholder is
     resolved to a specific printer for 2-tuples. As this function is
     overloaded, further placeholder resolution is required for the
     types associated with the tuple components."

     Our prelude's printing method is `str`, and `length` has type
     [a] -> Int, exactly as in the paper.                                *)
  Fmt.pr "@.== §7, second example:  g = \\x -> str (x, length x) ==@.@.";
  let c2 =
    Pipeline.compile ~file:"paper2.mhs" "g x = str (x, length x)\nmain = 0"
  in
  Fmt.pr "inferred type (the paper's: Text a => [a] -> String):@.";
  types c2;
  Fmt.pr "@.translation (the tuple printer applied to the component@.\
          dictionaries: d-Text-List d, and d-Text-Int — compare the@.\
          paper's final tree \"print-tuple2 (d-Text-List d) d-Text-Int\"):@.@.";
  show_binding c2 "g";

  (* -------- run them -------------------------------------------- *)
  Fmt.pr "@.== running both ==@.";
  let c3 =
    Pipeline.compile ~file:"paper3.mhs"
      {|
f :: Num a => a -> a
f x = if x == 0 then x else x + f (x - 1)
g x = str (x, length x)
main = (f (10 :: Int), g "ab", g [True])
|}
  in
  let r = Pipeline.exec c3 in
  Fmt.pr "result: %s@." r.rendered
