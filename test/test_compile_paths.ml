(** The fail-fast and the recovering compile must give the same verdict.

    [Pipeline.compile] succeeds exactly when [Pipeline.compile_collect]
    yields an artifact, and when it fails it raises the first error the
    collecting compile recorded, in issue order: the same severity and
    message, and the same location whenever the raised one is located.
    The inputs are the example corpus (clean and broken), seeded
    truncations and byte substitutions of it, and generated programs with
    planted errors, under every strategy and without the prelude. This
    is the reverse direction of the fuzz suite's "collected artifacts
    replay like fail-fast ones". *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Diagnostic = Tc_support.Diagnostic
module Loc = Tc_support.Loc

(* Bytes a substitution plants: layout, brackets, operators, keywords'
   first letters and digits, so most mutants fail somewhere past the
   lexer. *)
let alphabet = " \n\t(){}[];,=|\\:`'\"-+*<>.xyfaT01"

(* [n] seeded mutants of [corpus]: even seeds truncate a source, odd ones
   substitute one to three of its bytes. *)
let mutants corpus n =
  let corpus = Array.of_list corpus in
  List.init n (fun seed ->
      let rng = Random.State.make [| 0x5eed; seed |] in
      let src = corpus.(seed mod Array.length corpus) in
      let len = String.length src in
      if seed mod 2 = 0 then String.sub src 0 (Random.State.int rng (len + 1))
      else
        let b = Bytes.of_string src in
        for _ = 0 to Random.State.int rng 3 do
          Bytes.set b (Random.State.int rng len)
            alphabet.[Random.State.int rng (String.length alphabet)]
        done;
        Bytes.to_string b)

let sources =
  lazy
    (let corpus = Test_check_cache.corpus () in
     corpus @ mutants corpus 660 @ Test_check_cache.generated_with_errors)

let configs =
  let d = Pipeline.default_options in
  [
    ("dict", d);
    ("dict-flat", { d with strategy = Pipeline.Dicts_flat });
    ("tags", { d with strategy = Pipeline.Tags });
    ("no prelude", { d with include_prelude = false });
  ]

let file = "paths.mhs"

let agree ~opts src =
  let collected = Pipeline.compile_collect ~opts ~file src in
  let first = List.find_opt Diagnostic.is_error collected.diagnostics in
  match Pipeline.compile ~opts ~file src with
  | _ ->
      if Option.is_none collected.artifact then
        Alcotest.failf
          "compile succeeded, compile_collect did not (%s) on:@.%s"
          (Option.fold ~none:"no error" ~some:Diagnostic.to_string first)
          src
  | exception Diagnostic.Error d -> (
      match first with
      | None ->
          Alcotest.failf
            "compile raised %s, compile_collect recorded no error on:@.%s"
            (Diagnostic.to_string d) src
      | Some c ->
          if
            d.severity <> c.severity || d.message <> c.message
            || ((not (Loc.is_none d.loc)) && d.loc <> c.loc)
          then
            Alcotest.failf
              "compile raised@.  %s@.compile_collect's first error is@.  \
               %s@.on:@.%s"
              (Diagnostic.to_string d) (Diagnostic.to_string c) src)

(* On a raising sink a recovery boundary is just its body: an error
   keeps its (missing) location and any other exception is not wrapped as
   an internal error. *)
let raising_guard () =
  let guard f =
    Diagnostic.guard ~sink:(Diagnostic.Sink.raising ()) ~stage:"test"
      ~loc:(Loc.point ~file ~line:1 ~col:1)
      ~recover:(fun () -> Alcotest.fail "a raising sink recovered")
      f
  in
  let transient =
    Tc_resilience.Inject.Transient
      { point = Tc_resilience.Inject.Infer; detail = "test" }
  in
  List.iter
    (fun e ->
      match guard (fun () -> raise e) with
      | () -> Alcotest.fail "the guard swallowed an exception"
      | exception e' ->
          if e' != e then
            Alcotest.failf "the guard turned %s into %s"
              (Printexc.to_string e) (Printexc.to_string e'))
    [
      Diagnostic.Error
        (Diagnostic.make ~severity:Diagnostic.Error ~loc:Loc.none "unlocated");
      Not_found;
      Failure "boom";
      transient;
    ]

(* Without the prelude, a constructor field of type [String] fails with
   an unlocated error: [compile] raises it as is, while the recovering
   guard gives it its declaration's location. *)
let unlocated_error () =
  let opts = { Pipeline.default_options with include_prelude = false } in
  let src = "data T = C String\nmain = 1\n" in
  let message = "unknown type constructor 'String'" in
  (match Pipeline.compile ~opts ~file src with
   | exception Diagnostic.Error d ->
       Alcotest.(check string) "message" message d.message;
       Alcotest.(check bool) "unlocated" true (Loc.is_none d.loc)
   | _ -> Alcotest.fail "expected compile to raise");
  match (Pipeline.compile_collect ~opts ~file src).diagnostics with
  | [ d ] ->
      Alcotest.(check string) "collected" message d.message;
      Alcotest.(check bool) "located" false (Loc.is_none d.loc)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let tests =
  [
    ( "compile paths",
      List.map
        (fun (name, opts) ->
          case (name ^ ": compile fails with compile_collect's first error")
            (fun () -> List.iter (agree ~opts) (Lazy.force sources)))
        configs
      @ [
          case "a raising sink's guard passes every exception through"
            raising_guard;
          case "compile raises an unlocated error unlocated" unlocated_error;
        ] );
  ]
