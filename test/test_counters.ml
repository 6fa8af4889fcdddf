(** Pinned run-time behaviour of the corpus programs.

    Every [Counters] field and every budget exhaustion report, for each
    corpus program under every strategy (nested, flat, tags), on both
    back ends, lazy and strict, must match [counters.expected]. Those
    figures were recorded from an interpreter that charged each step to
    the budget one at a time and counted [steps] directly, so they pin
    the batched step meter, the tag-indexed case dispatch and the frame
    handling to exactly the old counts and the old [Exhausted] payloads.

    A line is [program strategy backend mode [budget] outcome], where the
    outcome is [ok] with the counters, [exhausted] with the classified
    message, or [compile-error] (return-type overloading under tags). *)

module Pipeline = Typeclasses.Pipeline
module Budget = Tc_resilience.Budget

let strategies =
  [ ("dict", Pipeline.Dicts); ("dict-flat", Pipeline.Dicts_flat);
    ("tags", Pipeline.Tags) ]

let backends = [ ("tree", `Tree); ("vm", `Vm) ]

(* Large enough for every program that terminates (strict nqueens takes
   about 1.2M steps); strict primes and strict nqueens under tags exhaust
   it, which pins the step report too. *)
let fuel = Budget.fuel 1_300_000

(* Budgets that stop most programs early: the allocation cap is checked
   on every step and the tree's frame bound at every force. *)
let capped =
  [ ("allocations=100", { Budget.unlimited with allocations = 100 });
    ("frames=40", { Budget.unlimited with frames = 40 }) ]

let outcome f =
  match f () with
  | (r : Pipeline.result) -> Fmt.str "ok %a" Tc_eval.Counters.pp r.counters
  | exception Budget.Exhausted { resource; spent; limit } ->
      "exhausted " ^ Budget.message resource ~spent ~limit
  | exception e -> "error " ^ Printexc.to_string e

let lines_of (name : string) : string list =
  let src = Test_programs.program name in
  List.concat_map
    (fun (sn, strategy) ->
      match
        Pipeline.compile
          ~opts:{ Pipeline.default_options with strategy }
          ~file:(name ^ ".mhs") src
      with
      | exception Tc_support.Diagnostic.Error _ ->
          [ Printf.sprintf "%s %s compile-error" name sn ]
      | c ->
          List.concat_map
            (fun (bn, backend) ->
              List.map
                (fun (mn, mode) ->
                  Printf.sprintf "%s %s %s %s %s" name sn bn mn
                    (outcome (fun () ->
                         Pipeline.exec ~backend ~mode ~budget:fuel c)))
                [ ("lazy", `Lazy); ("strict", `Strict) ]
              @ List.map
                  (fun (ln, budget) ->
                    Printf.sprintf "%s %s %s lazy %s %s" name sn bn ln
                      (outcome (fun () -> Pipeline.exec ~backend ~budget c)))
                  capped)
            backends)
    strategies

let expected : string list Lazy.t =
  lazy
    (String.split_on_char '\n' (Test_programs.read_file "counters.expected")
    |> List.filter (fun l -> l <> ""))

let pinned name =
  Helpers.case (name ^ ": counters and exhaustion reports as recorded")
    (fun () ->
      let want =
        List.filter
          (fun l -> String.starts_with ~prefix:(name ^ " ") l)
          (Lazy.force expected)
      in
      Alcotest.(check (list string)) name want (lines_of name))

let tests =
  [ ( "pinned counters",
      List.map (fun (name, _, _) -> pinned name) Test_programs.golden ) ]
