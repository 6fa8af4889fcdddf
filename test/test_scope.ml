(** One identifier scope per compile.

    A compile's names and gensyms live in its own {!Tc_support.Ident.scope},
    so what it answers depends only on its source and options. The
    history oracle serves every program after a shuffled prefix of the
    others and compares each answer with a fresh [mhc serve] process's.
    Contexts print in class-stamp order, so programs that declare the
    same classes in different orders expose any leak of one compile's
    names into the next. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Json = Tc_obs.Json
module Ident = Tc_support.Ident

let class_pool = [| "Alpha"; "Beta"; "Gamma"; "Delta"; "Zed" |]

(* A seeded program declaring 2-4 classes of a shared pool in a seeded
   order, each with an Int instance, and one unsigned binding [g] whose
   inferred context names them all. Returns the program and the scheme
   [g] must get: its context in declaration order, as in a fresh
   process. *)
let with_classes seed =
  let rng = Random.State.make [| seed |] in
  let pool = Array.copy class_pool in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  let classes =
    Array.to_list (Array.sub pool 0 (2 + Random.State.int rng 3))
  in
  let meth c = String.uncapitalize_ascii c ^ "M" in
  let decl i c =
    Printf.sprintf
      "class %s a where\n\
      \  %s :: a -> Int\n\
       instance %s Int where\n\
      \  %s x = x + %d"
      c (meth c) c (meth c) i
  in
  let uses = List.rev_map (fun c -> meth c ^ " x") classes in
  ( String.concat "\n"
      (List.mapi decl classes
      @ [ "g x = " ^ String.concat " + " uses; "main = g (3 :: Int)" ])
    ^ "\n",
    Printf.sprintf "\"g\":\"(%s) => a -> Int\""
      (String.concat ", " (List.map (fun c -> c ^ " a") classes)) )

let strategies = [| "dict"; "dict-flat"; "tags" |]

(* A program's requests: check and compile, under a strategy that varies
   with its index, so the history builds every prelude snapshot. *)
let requests i src =
  List.map
    (fun op ->
      Json.Obj
        [
          ("op", Json.Str op); ("src", Json.Str src);
          ("strategy", Json.Str strategies.(i mod 3));
        ])
    [ "check"; "compile" ]

let shuffle seed l =
  let rng = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* Every program after a shuffled prefix of the others, the one-class
   program last but one: one [mhc serve] process over that history must
   answer each request as a fresh process does. This test process's own
   server, after every compile the suite ran before, must type each
   class program's [g] in declaration order too (its prelude classes may
   stamp differently: the test executable interns other names at module
   initialisation). *)
let history_oracle () =
  let generated = List.init 50 (fun i -> with_classes (7000 + i)) in
  let programs =
    List.map (fun src -> (src, None)) (Test_check_cache.corpus ())
    @ List.map (fun (src, g) -> (src, Some g)) generated
  in
  let order =
    shuffle 25 (List.mapi (fun i (src, g) -> (i, src, g)) programs)
    @ [
        (0, Test_cli.zed_src, None);
        ( 0,
          Test_cli.alpha_zed_src,
          Some "\"f\":\"(Alpha a, Zed a) => a -> Int\"" );
      ]
  in
  let reqs = List.concat_map (fun (i, src, _) -> requests i src) order in
  let fresh =
    List.concat_map
      (fun (i, src, _) ->
        let code, lines = Test_cli.serve_lines [] (requests i src) in
        Alcotest.(check int) "fresh server exits" 0 code;
        lines)
      order
  in
  let code, served = Test_cli.serve_lines [] reqs in
  Alcotest.(check int) "history server exits" 0 code;
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length served);
  List.iteri
    (fun k (want, got) ->
      Alcotest.(check string)
        (Printf.sprintf "request %d" k)
        (Test_check_cache.answer_of want)
        (Test_check_cache.answer_of got))
    (List.combine fresh served);
  let t = Test_check_cache.server None in
  List.iter
    (fun (i, src, g) ->
      match (g, requests i src) with
      | Some needle, [ check; compile ] ->
          ignore (Typeclasses.Serve.handle_line t (Json.to_line check));
          let answer =
            Typeclasses.Serve.handle_line t (Json.to_line compile)
          in
          Alcotest.(check bool) (needle ^ " in " ^ answer) true
            (contains ~needle answer)
      | _ -> ())
    order

(* Names of the process-wide table. *)
let interned () = List.length (fst (Ident.snapshot ()))

let bounded_state () =
  let passes = Tc_opt.Opt.[ Simplify; Inner_entry; Hoist; Specialise ] in
  let opts i =
    {
      Pipeline.default_options with
      strategy = List.assoc strategies.(i mod 3) Pipeline.strategies;
    }
  in
  let run ~full i src =
    match (Pipeline.compile_collect ~opts:(opts i) src).artifact with
    | Some c when full ->
        let c = Pipeline.optimize passes c in
        (* under tags a literal needing return-type overloading fails at
           run time; only the names a run interns matter here *)
        List.iter
          (fun backend ->
            try ignore (Pipeline.exec ~backend c)
            with Tc_eval.Runtime.Pattern_fail _ -> ())
          [ `Tree; `Vm ];
        ignore (Pipeline.expression_type c "main");
        ignore (Pipeline.ident c "main")
    | _ -> ()
  in
  (* the first compile under each strategy builds its snapshot *)
  List.iteri (run ~full:true) (List.init 3 (fun i -> fst (with_classes i)));
  let after_first = interned () in
  for i = 0 to 2_999 do
    run ~full:(i mod 100 < 3) i
      (Test_check_cache.generated ~errors:(i mod 2) (30_000 + i))
  done;
  Alcotest.(check int) "process-wide names after 3,000 distinct compiles"
    after_first (interned ())

let tests =
  [
    ( "one scope per compile",
      [
        case "a compile answers as in a fresh server, whatever came before"
          history_oracle;
        case "distinct compiles leave the process-wide table as it was"
          bounded_state;
      ] );
  ]
