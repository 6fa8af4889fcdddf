(** The prelude snapshot against its differential oracle.

    Every compile extends a prelude that was checked once per process.
    The oracle is the same compile entry run on the empty snapshot with
    the prelude supplied as the first file, so the prelude is checked
    along with the program, every time. Per the coherence argument of
    Winant & Devriese, the route to a program's translation must not
    change what the program means: the two must agree on the user's
    schemes, the sorted located diagnostics, the warning count, the cache
    fingerprint, and the value and dictionary counters [exec] reports on
    both backends. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Diagnostic = Tc_support.Diagnostic
module Ident = Tc_support.Ident
module Cache = Tc_scale.Cache
module Metrics = Tc_obs.Metrics
module Trace = Tc_obs.Trace

let prelude = ("<prelude>", Tc_prelude.Prelude.source)
let budget = Pipeline.Budget.fuel 5_000_000

let snapshot ~opts src = Pipeline.compile_collect ~opts ~file:"t.mhs" src

let oracle ~opts src =
  Pipeline.compile_collect_files ~opts ~base:(Pipeline.empty_base ())
    [ prelude; ("t.mhs", src) ]

let exec_on backend (c : Pipeline.compiled) : string =
  match Pipeline.exec ~backend ~budget c with
  | r ->
      Printf.sprintf "%s [%s]" r.Pipeline.rendered
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Tc_eval.Counters.pairs r.Pipeline.counters)))
  | exception e -> "raised " ^ Printexc.to_string e

(** What a user can observe of one accumulating compile and its runs. *)
let observe (ck : Pipeline.checked) : string list =
  List.map Diagnostic.to_string (Diagnostic.sort ck.Pipeline.diagnostics)
  @
  match ck.Pipeline.artifact with
  | None -> [ "no artifact" ]
  | Some c ->
      List.map
        (fun (n, s) -> Ident.text n ^ " :: " ^ Tc_types.Scheme.to_string s)
        c.Pipeline.user_schemes
      @ [
          Printf.sprintf "warnings=%d" (List.length c.Pipeline.warnings);
          "fingerprint " ^ Cache.fingerprint c;
          "tree " ^ exec_on `Tree c;
          "vm " ^ exec_on `Vm c;
        ]

let strategies =
  [
    ("dicts", Pipeline.default_options);
    ( "dicts-flat",
      { Pipeline.default_options with strategy = Pipeline.Dicts_flat } );
    ("tags", { Pipeline.default_options with strategy = Pipeline.Tags });
  ]

let agree ?(label = "") src =
  List.iter
    (fun (name, opts) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s%s" label name)
        (observe (oracle ~opts src))
        (observe (snapshot ~opts src)))
    strategies

let agrees name src = case name (fun () -> agree src)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let broken =
  List.map
    (fun f -> read_file ("../examples/programs/broken/" ^ f ^ ".mhs"))
    [ "classes"; "mixed"; "parse_recovery" ]
  @ [
      "f x = = x\n\ng :: Int\ng = True\n\nmain = show []\n";
      "main = frobnicate";
      "main = [id] == [id]";
      "f :: a -> a\nf x = x + x\nmain = 0";
      "main = [] == []";
      "data T = A | B\nmain = A == B";
      "f = 1\nf = 2\nmain = 0";
      "main = parse \"1\"";
    ]

let targeted =
  [
    ( "an instance of a prelude class omitting a method without a default",
      "data T = A | B\n\
       instance Eq T where\n\
      \  x /= y = False\n\
       main = (A /= B, A == B)\n" );
    ( "the omitted method is never called",
      "data T = A | B\n\
       instance Text T where\n\
       instance Eq T where\n\
      \  A == A = True\n\
      \  B == B = True\n\
      \  x == y = False\n\
       main = (A /= B, member B [A, B])\n" );
    ( "a user fixity used with prelude operators",
      "infixl 5 <+>\n\
       x <+> y = x * 10 + y\n\
       main = (1 <+> 2 * 3 + 4, 2 <+> 3 <+> 4)\n" );
    ( "a user fixity redeclaring a prelude operator",
      "infixr 6 -\n\
       infixl 7 +\n\
       main = (10 - 3 - 2, 1 + 2 * 3, sum [1, 2, 3] - 1)\n" );
    ("a duplicate instance Eq Int",
      "instance Eq Int where\n  x == y = True\nmain = 1 == 2\n");
    ( "a duplicate of a derived prelude instance",
      "instance Eq Bool where\n  x == y = True\nmain = True == False\n" );
    ( "redefining a prelude top-level name",
      "map f xs = xs\nmain = map id [1]\n" );
    ( "a signature for a prelude name",
      "length :: [a] -> Int\nmain = length [1, 2]\n" );
    ("redefining a class method at top level",
      "x == y = True\nmain = 1 == 2\n");
    ( "a class method named like a prelude function",
      "class C a where\n  length :: a -> Int\nmain = length [1]\n" );
    ("redefining a primitive", "primEqInt x y = False\nmain = 1 == 1\n");
    ( "redefining a prelude class",
      "class Eq a where\n  foo :: a -> Int\nmain = foo 1\n" );
    ("redefining a prelude type", "data Bool = Yes | No\nmain = not Yes\n");
    ( "a new class, instances on prelude types, superclass over a prelude \
       class",
      "class Eq a => Container a where\n\
      \  empty :: a\n\
      \  size :: a -> Int\n\
      \  size x = if x == empty then 0 else 1\n\
       instance Container Int where\n\
      \  empty = 0\n\
       instance Container Bool where\n\
      \  empty = False\n\
      \  size x = 7\n\
       main = (size (3 :: Int), size True, size (0 :: Int))\n" );
    ( "a derived instance and overloaded user code",
      "data Color = Red | Green deriving (Eq, Ord, Text)\n\
       twice :: Num a => a -> a\n\
       twice x = x + x\n\
       main = (show (max Red Green), twice 21, twice 1.5,\n\
      \        sort [Green, Red])\n" );
    ("no main", "f x = x\n");
  ]

let gen_count = 25

let tests =
  [
    ( "snapshot oracle",
      [
        case "the example corpus" (fun () ->
            List.iter
              (fun (name, src) -> agree ~label:(name ^ "/") src)
              (Test_opt.example_programs
              @ [ ("primes", read_file "../examples/programs/primes.mhs") ]));
        case "broken programs" (fun () ->
            List.iteri
              (fun i src -> agree ~label:(Printf.sprintf "broken %d/" i) src)
              broken);
      ]
      @ List.map (fun (name, src) -> agrees name src) targeted
      @ List.map
          (fun (name, opts) ->
            QCheck_alcotest.to_alcotest
              (QCheck2.Test.make
                 ~name:("generated programs under " ^ name)
                 ~count:gen_count Test_differential.gen_program
                 (fun src ->
                   observe (oracle ~opts src) = observe (snapshot ~opts src))))
          strategies );
    ( "snapshot sharing",
      [
        case "one snapshot per option combination, shared by compiles"
          (fun () ->
            let c1 = Helpers.compile "main = 1" in
            let c2 = Helpers.compile "main = 2" in
            (match (Pipeline.shared_base c1, Pipeline.shared_base c2) with
            | Some (b1, w), Some (b2, _) ->
                Alcotest.(check bool) "one snapshot" true (b1 == b2);
                Alcotest.(check bool) "it has a size" true (w > 0)
            | _ -> Alcotest.fail "compiles share no snapshot");
            let same a b =
              match (Pipeline.shared_base a, Pipeline.shared_base b) with
              | Some (x, _), Some (y, _) -> x == y
              | _ -> false
            in
            let tags =
              Helpers.compile ~opts:(List.assoc "tags" strategies) "main = 1"
            in
            Alcotest.(check bool) "tags checks on the nested-layout snapshot"
              true (same tags c1);
            let flat =
              Helpers.compile ~opts:(List.assoc "dicts-flat" strategies)
                "main = 1"
            in
            Alcotest.(check bool) "the flat layout has its own" true
              (Option.is_some (Pipeline.shared_base flat)
              && not (same flat c1));
            let none =
              Helpers.compile
                ~opts:{ Pipeline.default_options with include_prelude = false }
                "main = 1"
            in
            Alcotest.(check bool) "no prelude, nothing shared" true
              (Option.is_none (Pipeline.shared_base none)));
        case "checker counts cover the user's program only" (fun () ->
            let c = Helpers.compile "main = 1 + 2" in
            let u = c.Pipeline.checker_stats.Tc_types.Stats.unifications in
            Alcotest.(check bool)
              (Printf.sprintf "a one-line program: %d unifications" u)
              true
              (u > 0 && u < 100));
        case "an artifact is charged for its own part only" (fun () ->
            let c = Helpers.compile "main = 1 + 2" in
            match Pipeline.shared_base c with
            | None -> Alcotest.fail "no shared snapshot"
            | Some (_, base_words) ->
                let own = Pipeline.own_words c in
                Alcotest.(check bool)
                  (Printf.sprintf "own %d words, snapshot %d" own base_words)
                  true
                  (own > 0 && own * 4 < base_words));
        case "the cache charges each entry its own part only" (fun () ->
            let cache = Cache.create () in
            let run src =
              Cache.compile_run cache ~opts:Pipeline.default_options
                ~passes:[] ~src
            in
            let c1 = run "main = 1" and c2 = run "main = 2" in
            let bytes c = Pipeline.own_words c * (Sys.word_size / 8) in
            let snapshot =
              match Pipeline.shared_base c1 with
              | Some (_, w) -> w * (Sys.word_size / 8)
              | None -> Alcotest.fail "no shared snapshot"
            in
            Alcotest.(check int) "the entries' own parts" (bytes c1 + bytes c2)
              (Cache.bytes cache);
            Alcotest.(check bool)
              (Printf.sprintf "%d bytes, under one %d-byte snapshot"
                 (Cache.bytes cache) snapshot)
              true
              (Cache.bytes cache < snapshot));
        case "a traced compile extends the shared snapshot" (fun () ->
            let builds () =
              Metrics.counter_value
                (Metrics.counter Pipeline.process_metrics
                   "prelude/snapshot_builds")
            in
            ignore (Helpers.compile "main = 0");
            let before = builds () in
            let trace, events = Trace.collector () in
            let c =
              Helpers.compile
                ~opts:{ Pipeline.default_options with trace }
                "main = 1 == 1"
            in
            let located_in file =
              List.filter
                (fun e ->
                  match Trace.loc_of_event e with
                  | Some l -> l.Tc_support.Loc.file = file
                  | None -> false)
                (events ())
            in
            Alcotest.(check bool) "the program's events traced" true
              (located_in "test.mhs" <> []);
            Alcotest.(check int) "none from the prelude" 0
              (List.length (located_in "<prelude>"));
            Alcotest.(check bool) "on the shared snapshot" true
              (Option.is_some (Pipeline.shared_base c));
            Alcotest.(check int) "the memoized snapshot is not rebuilt" before
              (builds ()));
        case "a traced compile's run artifact persists to disk" (fun () ->
            let dir = Test_scale.tmpdir () in
            Fun.protect ~finally:(fun () -> Test_scale.rm_rf dir) @@ fun () ->
            let cache = Cache.create ~dir () in
            Fun.protect ~finally:(fun () -> Cache.close cache) @@ fun () ->
            let trace, _ = Trace.collector () in
            ignore
              (Cache.compile_run cache
                 ~opts:{ Pipeline.default_options with trace }
                 ~passes:[] ~src:"main = 1 == 1");
            Alcotest.(check int) "written" 1
              (Test_scale.cache_counter cache "persist/writes");
            Alcotest.(check int) "no error" 0
              (Test_scale.cache_counter cache "persist/errors"));
        case "four domains compile against one snapshot as one would" (fun () ->
            let programs =
              List.init 8 (fun i ->
                  Printf.sprintf
                    "data T%d = A%d | B%d deriving (Eq, Ord, Text)\n\
                     f%d :: Num a => a -> a\n\
                     f%d x = x * %d + 1\n\
                     main = (f%d 2, f%d 0.5, show [B%d, A%d], sort [B%d, A%d], \
                     member %d [1, 2, 3])\n"
                    i i i i i i i i i i i i i)
            in
            let opts = Pipeline.default_options in
            let run src = observe (snapshot ~opts src) in
            let sequential = List.map run programs in
            let rounds = 3 in
            let workers =
              List.init 4 (fun d ->
                  Domain.spawn (fun () ->
                      List.init rounds (fun _ ->
                          List.filteri (fun i _ -> i mod 4 = d) programs
                          |> List.map run)))
            in
            let results = List.map Domain.join workers in
            List.iteri
              (fun d per_round ->
                let expected =
                  List.filteri (fun i _ -> i mod 4 = d) sequential
                in
                List.iter
                  (fun got ->
                    Alcotest.(check (list (list string)))
                      (Printf.sprintf "domain %d" d) expected got)
                  per_round)
              results;
            Alcotest.(check (list (list string))) "still sequentially equal"
              sequential (List.map run programs));
      ] );
  ]
