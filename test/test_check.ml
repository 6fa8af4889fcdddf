(** Tests for the accumulating front end ({!Pipeline.compile_collect}):
    multi-error recovery, diagnostic ordering, error caps and cascade
    control. Golden messages here pin down locations, so a regression in
    recovery shows up as a moved or missing diagnostic. *)

open Helpers
module Pipeline = Typeclasses.Pipeline
module Diagnostic = Tc_support.Diagnostic

let collect ?opts src : Pipeline.checked =
  Pipeline.compile_collect ?opts ~file:"test.mhs" src

(** Sorted, rendered diagnostics — what [mhc check] shows the user. *)
let rendered ?opts src : string list =
  List.map Diagnostic.to_string (Diagnostic.sort (collect ?opts src).diagnostics)

let check_diags name ?opts src expected =
  case name (fun () ->
      Alcotest.(check (list string)) name expected (rendered ?opts src))

(* A file with one parse error, one unification error and one ambiguity
   error: the issue's acceptance program. *)
let mixed = "f x = = x\n\ng :: Int\ng = True\n\nmain = show []\n"

let tests =
  [
    ( "check-collect",
      [
        check_diags "three independent errors in one run" mixed
          [ "test.mhs:1:7-7: error: parse error: expected an expression \
             (found '=')";
            "test.mhs:4:1-1: error: type mismatch: cannot unify 'Bool' with \
             'Int'";
            "test.mhs:6:8-11: error: ambiguous overloading: cannot determine \
             a type satisfying the context 'Text a => a'" ];
        check_diags "clean program yields no diagnostics"
          "double x = x + x\nmain = double 21\n" [];
        case "clean program still compiles to an artifact" (fun () ->
            match (collect "main = 42\n").artifact with
            | Some _ -> ()
            | None -> Alcotest.fail "expected an artifact");
        case "any error suppresses the artifact" (fun () ->
            match (collect mixed).artifact with
            | None -> ()
            | Some _ -> Alcotest.fail "expected no artifact");
        case "accumulating compile agrees with the fail-fast shim" (fun () ->
            (* same program, both entry points: compile must still raise
               (the compatibility contract), and its first error must be
               among the collected ones *)
            match compile mixed with
            | exception Tc_support.Diagnostic.Error d ->
                let first = Diagnostic.to_string d in
                let all = rendered mixed in
                if not (List.mem first all) then
                  Alcotest.failf "fail-fast error %S not collected" first
            | _ -> Alcotest.fail "expected compile to raise");
        case "an unclosed explicit block at end of file is an error"
          (fun () ->
            (* EOF ends a block only after a recovery skip consumed its
               close; here nothing was skipped *)
            let src = "{ main = 1;" in
            let expected =
              "test.mhs:1:12-11: error: parse error: expected a pattern \
               (found '<eof>')"
            in
            (match compile src with
             | exception Tc_support.Diagnostic.Error d ->
                 Alcotest.(check string) "compile" expected
                   (Diagnostic.to_string d)
             | _ -> Alcotest.fail "expected compile to raise");
            Alcotest.(check (list string)) "compile_collect" [ expected ]
              (rendered src);
            Alcotest.(check bool) "no artifact" true
              (Option.is_none (collect src).artifact));
        check_diags "parser resynchronizes past two parse errors"
          "good1 = 41\n\noops1 = )\n\ngood2 = good1 + 1\n\noops2 x = let in \
           x\n\nbad :: Int\nbad = 'c'\n\nmain = good2\n"
          [ "test.mhs:3:9-9: error: parse error: expected an expression \
             (found ')')";
            "test.mhs:7:15-16: error: parse error: expected a pattern (found \
             'in')";
            "test.mhs:10:1-3: error: type mismatch: cannot unify 'Char' with \
             'Int'" ];
        check_diags "bad class declarations are isolated per declaration"
          "data Color = Red | Green | Blue\n\ninstance Eq Color where\n  x == \
           y = True\n\ninstance Eq Color where\n  x == y = False\n\ninstance \
           Frobnicable Color where\n  frob x = x\n\nmain = Red == Green\n"
          [ "test.mhs:6:1-9:8: error: duplicate instance 'Eq Color'";
            "test.mhs:9:1-12:4: error: unknown class 'Frobnicable'" ];
        case "one type error does not cascade into its uses" (fun () ->
            (* [g]'s body is broken, but [g] gets an error scheme, so the
               (well-typed) uses of [g] stay silent. *)
            let ds =
              rendered "g :: Int\ng = True\nh = g + 1\nk = g * 2\nmain = h + k\n"
            in
            Alcotest.(check int) "one diagnostic" 1 (List.length ds));
        case "diagnostics come out sorted by location" (fun () ->
            let ds = Diagnostic.sort (collect mixed).diagnostics in
            let locs =
              List.map (fun (d : Diagnostic.t) -> d.loc.Tc_support.Loc.start_pos.line) ds
            in
            Alcotest.(check (list int)) "line order" [ 1; 4; 6 ] locs);
        case "--max-errors caps the error count" (fun () ->
            (* ten independent type errors, capped at 3: three errors plus
               the "too many errors" warning *)
            let buf = Buffer.create 256 in
            for i = 1 to 10 do
              Buffer.add_string buf
                (Printf.sprintf "v%d :: Int\nv%d = 'c'\n" i i)
            done;
            Buffer.add_string buf "main = 0\n";
            let opts = { Pipeline.default_options with max_errors = 3 } in
            let r = collect ~opts (Buffer.contents buf) in
            let errors =
              List.filter Diagnostic.is_error r.diagnostics |> List.length
            in
            Alcotest.(check int) "errors capped" 3 errors;
            let truncated =
              List.exists
                (fun (d : Diagnostic.t) ->
                  contains ~needle:"too many errors" d.message)
                r.diagnostics
            in
            Alcotest.(check bool) "truncation notice" true truncated);
        case "max_errors <= 0 means unlimited" (fun () ->
            let buf = Buffer.create 256 in
            for i = 1 to 10 do
              Buffer.add_string buf
                (Printf.sprintf "v%d :: Int\nv%d = 'c'\n" i i)
            done;
            Buffer.add_string buf "main = 0\n";
            let opts = { Pipeline.default_options with max_errors = 0 } in
            let r = collect ~opts (Buffer.contents buf) in
            let errors =
              List.filter Diagnostic.is_error r.diagnostics |> List.length
            in
            Alcotest.(check int) "all ten" 10 errors);
        case "no diagnostics carry the Bug severity on user errors" (fun () ->
            let r = collect mixed in
            Alcotest.(check bool) "no ICE" false
              (List.exists
                 (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Bug)
                 r.diagnostics));
        case "warnings alone do not suppress the artifact" (fun () ->
            (* shadowing the prelude currently warns; any warning-only
               program must still produce an artifact *)
            let r = collect "main = 42\n" in
            Alcotest.(check bool) "artifact present" true
              (r.artifact <> None));
      ] );
  ]
