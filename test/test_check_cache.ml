(** The serve check path against its uncached oracle.

    A [check] or [compile] response is rendered from a
    {!Typeclasses.Serve.check_answer} alone, and that answer is what the
    compile cache stores. So every path to a response — a cache miss, a
    hit, a verified hit and a disk-tier hit after a restart — must give
    the bytes an uncached server gives, apart from [id] and [trace]. The
    programs are the example corpus (clean and broken) and generated
    programs with planted errors. A check entry holds only its answer:
    small, and charged no prelude snapshot. *)

open Helpers
module Serve = Typeclasses.Serve
module Pipeline = Typeclasses.Pipeline
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Cache = Tc_scale.Cache

let read_file path = In_channel.with_open_bin path In_channel.input_all

let corpus () =
  let dir d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mhs")
    |> List.sort compare
    |> List.map (fun f -> read_file (Filename.concat d f))
  in
  dir "../examples/programs" @ dir "../examples/programs/broken"

(* ---- generated programs ---- *)

(* One well-typed top-level group over the stem and an Int-typed use. *)
let block kind n stem =
  let f = Printf.sprintf "%s%d" stem n in
  match kind with
  | 0 ->
      ( Printf.sprintf
          "%s :: (Num a, Ord a) => a -> a -> a\n\
           %s x y = if x < y then y - x else x + y * 2"
          f f,
        f ^ " 3 4" )
  | 1 ->
      (f ^ " xs = sum (map (\\v -> v * v) xs) + length xs", f ^ " [1, 2, 3]")
  | 2 ->
      ( f ^ " x ys = member [x] [ys] || maximum ys == x",
        Printf.sprintf "(if %s 2 [1, 2] then 1 else 0)" f )
  | 3 ->
      let cap = String.capitalize_ascii stem in
      let ty = Printf.sprintf "%sT%d" cap n in
      let cls = Printf.sprintf "%sC%d" cap n in
      let m = Printf.sprintf "%sm%d" stem n in
      ( Printf.sprintf
          "data %s = %sA Int | %sB Bool\n\
           class %s a where\n\
          \  %s :: a -> Int\n\
           instance %s Int where\n\
          \  %s k = k + 1\n\
           instance %s %s where\n\
          \  %s (%sA k) = k\n\
          \  %s (%sB q) = if q then 1 else 0\n\
           %s = %s (%sA 3) + %s (%sB True) + %s (2 :: Int)"
          ty ty ty cls m cls m cls ty m ty m ty f m ty m ty m,
        f )
  | _ -> (f ^ " k = let g j = (j, j + k) in fst (g k) + snd (g 1)", f ^ " 5")

(* Each planted binding is used nowhere else and yields one error. *)
let planted =
  [|
    Printf.sprintf "%s = True + 1";
    Printf.sprintf "%s y = y ++ 1";
    Printf.sprintf "%s = 'c' == 1";
    Printf.sprintf "%s = (1 :: Int) && True";
    (fun e -> Printf.sprintf "%s = %smissing 3" e e);
  |]

(* A seeded program of 1-8 blocks with [errors] planted errors. *)
let generated ~errors seed =
  let rng = Random.State.make [| seed |] in
  let stem =
    String.init 6 (fun _ -> Char.chr (97 + Random.State.int rng 26))
  in
  let blocks =
    List.init (1 + Random.State.int rng 8) (fun n ->
        block (Random.State.int rng 5) n stem)
  in
  let errs =
    List.init errors (fun k ->
        planted.(Random.State.int rng (Array.length planted))
          (Printf.sprintf "%se%d" stem k))
  in
  String.concat "\n\n"
    (List.map fst blocks @ errs
    @ [ "main = " ^ String.concat " + " (List.map snd blocks) ])
  ^ "\n"

let generated_with_errors =
  List.init 50 (fun i -> generated ~errors:(1 + (i mod 2)) i)

(* ---- serving ---- *)

let server cache =
  Serve.create
    ~config:
      {
        Serve.default_config with
        Serve.sleep = (fun _ -> ());
        hooks = { Serve.no_hooks with check = Option.map Cache.check cache };
      }
    ()

(* A response line without its [id] and [trace]. *)
let answer_of line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      Json.to_line
        (Json.Obj
           (List.filter (fun (k, _) -> k <> "id" && k <> "trace") fields))
  | _ -> Alcotest.failf "not a JSON object: %s" line

let ask t op i src =
  answer_of
    (Serve.handle_line t
       (Json.to_line
          (Json.Obj
             [
               ("op", Json.Str op); ("id", Json.Int i); ("src", Json.Str src);
             ])))

let counter c name =
  Option.value ~default:0
    (List.assoc_opt ("scale/cache/" ^ name)
       (Metrics.counters (Cache.metrics c)))

(* Every program under [op] through a miss, a hit, a verified hit and a
   disk hit after a restart, against an uncached server. *)
let oracle op srcs () =
  let reference = List.mapi (ask (server None) op) srcs in
  let agree path t =
    List.iteri
      (fun i (src, want) ->
        Alcotest.(check string)
          (Printf.sprintf "%s %s #%d" op path i)
          want (ask t op i src))
      (List.combine srcs reference)
  in
  let c = Cache.create () in
  let t = server (Some c) in
  agree "miss" t;
  agree "hit" t;
  Alcotest.(check int) "one hit per program" (List.length srcs)
    (counter c "hits");
  let v = Cache.create ~verify_every:1 () in
  let t = server (Some v) in
  agree "verify miss" t;
  agree "verified hit" t;
  Alcotest.(check int) "every hit verified" (List.length srcs)
    (counter v "verified");
  Alcotest.(check int) "no verify_fail" 0 (counter v "verify_fail");
  let dir = Test_scale.tmpdir () in
  Fun.protect ~finally:(fun () -> Test_scale.rm_rf dir) @@ fun () ->
  let w = Cache.create ~dir () in
  agree "write-through miss" (server (Some w));
  Cache.close w;
  let d = Cache.create ~dir () in
  agree "disk hit" (server (Some d));
  Alcotest.(check int) "served from disk" (List.length srcs)
    (counter d "persist/hits");
  Cache.close d

let bound_case () =
  let c = Cache.create () in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore
      (Cache.check c ~opts:Pipeline.default_options
         ~src:(generated ~errors:(i mod 3) (1000 + i)))
  done;
  Alcotest.(check int) "every program cached" n (Cache.entries c);
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes under %d" (Cache.bytes c) (n * 2048))
    true
    (Cache.bytes c < n * 2048);
  (* any charged snapshot alone would exceed what the entries hold *)
  let snapshot_bytes =
    Option.value ~default:0
      (List.assoc_opt "prelude/snapshot_words"
         (Metrics.gauges Pipeline.process_metrics))
    * (Sys.word_size / 8)
  in
  Alcotest.(check bool) "no snapshot charged" true
    (snapshot_bytes > 0 && Cache.bytes c < snapshot_bytes)

(* The disk tier keeps no identifier table: whatever names the programs
   intern, its directory holds the entries, the lock and the header-only
   [writer] file [open_dir] wrote once, and a restart still serves every
   entry. *)
let writer_file_case () =
  let dir = Test_scale.tmpdir () in
  Fun.protect ~finally:(fun () -> Test_scale.rm_rf dir) @@ fun () ->
  let writer () =
    In_channel.with_open_bin (Filename.concat dir "writer")
      In_channel.input_all
  in
  let srcs = List.init 31 (fun i -> generated ~errors:(i mod 2) (5000 + i)) in
  let opts = Pipeline.default_options in
  let w = Cache.create ~dir () in
  let header = writer () in
  List.iter (fun src -> ignore (Cache.check w ~opts ~src)) srcs;
  ignore (Cache.compile_run w ~opts ~passes:[] ~src:(List.nth srcs 0));
  Alcotest.(check int) "32 entries written" 32 (counter w "persist/writes");
  Alcotest.(check string) "writer file unchanged" header (writer ());
  Alcotest.(check int) "header only" 1
    (List.length (String.split_on_char '\n' (String.trim header)));
  let others =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (String.starts_with ~prefix:"entry-" f))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "no intern table" [ "lock"; "writer" ] others;
  Cache.close w;
  let r = Cache.create ~dir () in
  List.iter (fun src -> ignore (Cache.check r ~opts ~src)) srcs;
  Alcotest.(check int) "a restart serves all 31 from disk" 31
    (counter r "persist/hits");
  Cache.close r

let tests =
  [
    ( "check path oracle",
      [
        case "check: the corpus on every cache path" (fun () ->
            oracle "check" (corpus ()) ());
        case "compile: the corpus on every cache path" (fun () ->
            oracle "compile" (corpus ()) ());
        case "check: generated programs with planted errors"
          (oracle "check" generated_with_errors);
        case "compile: generated programs with planted errors"
          (oracle "compile" generated_with_errors);
        case "planted errors are reported" (fun () ->
            List.iter
              (fun src ->
                let a =
                  Serve.check_answer_of
                    (Pipeline.compile_collect ~file:"<serve>" src)
                in
                Alcotest.(check bool) "errors, no schemes" true
                  (a.Serve.schemes = None
                  && List.exists Tc_support.Diagnostic.is_error
                       a.Serve.diagnostics))
              generated_with_errors);
        case "200 check entries stay small and charge no snapshot" bound_case;
        case "the disk tier keeps a writer file and no intern table"
          writer_file_case;
      ] );
  ]
