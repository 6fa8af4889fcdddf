(** Run-time operation counters.

    The paper's performance claims (§9) are about machine-independent
    operation counts: dictionary constructions, method selections,
    application overhead. The evaluator counts them directly. *)

type t = {
  mutable steps : int;               (* expression evaluations *)
  mutable applications : int;        (* function applications *)
  mutable dict_constructions : int;  (* MkDict evaluations *)
  mutable dict_fields : int;         (* total fields of constructed dicts *)
  mutable selections : int;          (* Sel evaluations *)
  mutable thunk_forces : int;        (* delayed computations forced *)
  mutable allocations : int;         (* data / dict / closure allocations *)
  mutable prim_calls : int;
  mutable tag_dispatches : int;      (* primTypeTag calls (tag-dispatch mode) *)
}

let create () =
  {
    steps = 0;
    applications = 0;
    dict_constructions = 0;
    dict_fields = 0;
    selections = 0;
    thunk_forces = 0;
    allocations = 0;
    prim_calls = 0;
    tag_dispatches = 0;
  }

let reset t =
  t.steps <- 0;
  t.applications <- 0;
  t.dict_constructions <- 0;
  t.dict_fields <- 0;
  t.selections <- 0;
  t.thunk_forces <- 0;
  t.allocations <- 0;
  t.prim_calls <- 0;
  t.tag_dispatches <- 0

let pairs t =
  [
    ("steps", t.steps);
    ("applications", t.applications);
    ("dict_constructions", t.dict_constructions);
    ("dict_fields", t.dict_fields);
    ("selections", t.selections);
    ("thunk_forces", t.thunk_forces);
    ("allocations", t.allocations);
    ("prim_calls", t.prim_calls);
    ("tag_dispatches", t.tag_dispatches);
  ]

let to_json t =
  Tc_obs.Json.Obj (List.map (fun (k, v) -> (k, Tc_obs.Json.Int v)) (pairs t))

let pp ppf t =
  Fmt.pf ppf
    "steps=%d apps=%d dict-constructions=%d dict-fields=%d selections=%d \
     forces=%d allocations=%d prim-calls=%d tag-dispatches=%d"
    t.steps t.applications t.dict_constructions t.dict_fields t.selections
    t.thunk_forces t.allocations t.prim_calls t.tag_dispatches
