(** Integration tests for the mhc command-line driver: run the real binary
    on real files and check stdout/stderr and exit codes. *)

let mhc = "../bin/mhc.exe"

(** Run mhc with [args]; returns (exit code, stdout ^ stderr). *)
let run_mhc args : int * string =
  let out = Filename.temp_file "mhc_test" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote mhc)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic; Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let with_program src (f : string -> unit) =
  let path = Filename.temp_file "prog" ".mhs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc src;
      close_out oc;
      f path)

let case = Helpers.case

module Json = Tc_obs.Json
module Pipeline = Typeclasses.Pipeline

(** Pipe [requests] (one JSON object each) through [mhc serve args];
    returns the exit code and the response lines. *)
let serve_run args (requests : Json.t list) : int * string list * string =
  let input = Filename.temp_file "serve" ".in" in
  let output = Filename.temp_file "serve" ".out" in
  let errors = Filename.temp_file "serve" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ input; output; errors ])
    (fun () ->
      Out_channel.with_open_bin input (fun oc ->
          List.iter
            (fun r -> output_string oc (Json.to_line r ^ "\n"))
            requests);
      let code =
        Sys.command
          (Printf.sprintf "%s serve %s < %s > %s 2> %s"
             (Filename.quote mhc)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote input) (Filename.quote output)
             (Filename.quote errors))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      ( code,
        List.filter (( <> ) "") (String.split_on_char '\n' (read output)),
        read errors ))

let serve_lines args requests =
  let code, lines, _ = serve_run args requests in
  (code, lines)

let json_field name line =
  match Json.parse line with
  | Ok j -> Json.member name j
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line

(** The counter [name] in a [--metrics] file, 0 when absent. *)
let metrics_counter file name =
  match
    Json.parse (In_channel.with_open_bin file In_channel.input_all)
  with
  | Ok j -> (
      match Option.bind (Json.member "counters" j) (Json.member name) with
      | Some (Json.Int n) -> n
      | _ -> 0)
  | Error e -> Alcotest.failf "metrics not JSON: %s" e

(* A program the specializer clones when profiled, and a spec profile of
   it written to a temp file. The profile is taken in process under the
   file name serve compiles with, so its site descriptors match there. *)
let my_sum n =
  Printf.sprintf
    "mySum :: Num a => a -> a\n\
     mySum n = if n == 0 then 0 else n + mySum (n - 1)\n\
     main = mySum (%d :: Int)\n"
    n

let with_spec_profile src (f : string -> Tc_obs.Profile.spec -> unit) =
  let c = Pipeline.compile ~file:"<serve>" src in
  let sp =
    Tc_obs.Profile.spec_of_report
      (Option.get (Pipeline.exec ~profile:true c).Pipeline.profile)
  in
  let path = Filename.temp_file "spec" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (Tc_obs.Profile.spec_json sp)));
      f path sp)

let demo = "double :: Num a => a -> a\ndouble x = x + x\nmain = double 21\n"

(* One class, then two: served in this order, a process-wide intern table
   would stamp [Zed] before [Alpha] and print [f]'s context backwards. *)
let zed_src =
  "class Zed a where\n\
  \  zed :: a -> Int\n\
   instance Zed Int where\n\
  \  zed x = x\n\
   main = zed (1 :: Int)\n"

let alpha_zed_src =
  "class Alpha a where\n\
  \  alpha :: a -> Int\n\
   class Zed a where\n\
  \  zed :: a -> Int\n\
   instance Alpha Int where\n\
  \  alpha x = x\n\
   instance Zed Int where\n\
  \  zed x = x + 1\n\
   f x = alpha x + zed x\n\
   main = f (1 :: Int)\n"

(* The standard output of [mhc args]. *)
let mhc_stdout args =
  let out = Filename.temp_file "mhc_test" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  ignore
    (Sys.command
       (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote mhc)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)));
  In_channel.with_open_bin out In_channel.input_all

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* [s] with its first occurrence of [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

(* Pipe [input] into [mhc repl]; returns the exit code and the output. *)
let repl input =
  let in_file = Filename.temp_file "repl" ".in" in
  let out_file = Filename.temp_file "repl" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove in_file; Sys.remove out_file)
    (fun () ->
      Out_channel.with_open_bin in_file (fun oc -> output_string oc input);
      let code =
        Sys.command
          (Printf.sprintf "%s repl < %s > %s 2>&1" (Filename.quote mhc)
             (Filename.quote in_file) (Filename.quote out_file))
      in
      (code, In_channel.with_open_bin out_file In_channel.input_all))

(* ---- one live metrics view, over a real [mhc serve] ---- *)

(* [mhc serve args] as a child process: [f] writes requests to its stdin
   and reads its stdout; then stdin closes, which drains the server.
   Returns [f]'s result, the lines written after it, and the exit code. *)
let with_serve args f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process mhc
      (Array.of_list (mhc :: "serve" :: args))
      in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null ];
  let oc = Unix.out_channel_of_descr in_w in
  let ic = Unix.in_channel_of_descr out_r in
  let v = Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc ic) in
  let rest = In_channel.input_all ic in
  close_in ic;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> -1
  in
  (v, List.filter (( <> ) "") (String.split_on_char '\n' rest), code)

let send oc (r : Json.t) =
  output_string oc (Json.to_line r ^ "\n");
  flush oc

let decode line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "not JSON (%s): %s" e line

(* The next response, collecting the snapshot lines before it. *)
let rec response ic events =
  let j = decode (input_line ic) in
  if Json.member "event" j <> None then begin
    events := j :: !events;
    response ic events
  end
  else j

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "no %S in %s" name (Json.to_string j)

let int_pairs j =
  match j with
  | Json.Obj kvs ->
      List.sort compare
        (List.map
           (fun (k, v) ->
             match v with
             | Json.Int n -> (k, n)
             | Json.Obj _ -> (k, Option.value ~default:0 (Option.bind (Json.member "count" v) Json.to_int))
             | _ -> Alcotest.failf "%s is not a count" k)
           kvs)
  | _ -> Alcotest.fail "not an object"

(* What two readings of the view must agree on: counters, gauges (less
   the major heap, which is read at the instant of the reading) and
   histogram and span counts. *)
let reading snap =
  let spans =
    match member "spans" snap with
    | Json.List l ->
        List.sort compare
          (List.map
             (fun s ->
               ( Option.get (Option.bind (Json.member "span" s) Json.to_str),
                 Option.get (Option.bind (Json.member "count" s) Json.to_int) ))
             l)
    | _ -> Alcotest.fail "spans not a list"
  in
  ( int_pairs (member "counters" snap),
    List.remove_assoc "gc/major_heap_words" (int_pairs (member "gauges" snap)),
    int_pairs (member "histograms" snap),
    spans )

(* [reading] less one answered request of [op] *)
let less_one op (counters, gauges, hists, spans) =
  let dec k l =
    List.filter_map
      (fun (k', n) ->
        if k' <> k then Some (k', n) else if n > 1 then Some (k', n - 1) else None)
      l
  in
  (dec "serve/requests" counters, gauges, dec ("serve/latency/" ^ op) hists, spans)

let latency_invariant snap =
  let counters, _, hists, _ = reading snap in
  let requests = Option.value ~default:0 (List.assoc_opt "serve/requests" counters) in
  let latency =
    List.fold_left
      (fun n (k, c) ->
        if String.starts_with ~prefix:"serve/latency/" k then n + c else n)
      0 hists
  in
  (requests, latency)

let reading_t =
  Alcotest.(
    pair
      (pair (list (pair string int)) (list (pair string int)))
      (pair (list (pair string int)) (list (pair string int))))

let pairs4 (a, b, c, d) = ((a, b), (c, d))

let view_requests =
  List.init 60 (fun i ->
      if i mod 3 = 0 then
        Json.Obj
          [ ("op", Json.Str "run");
            ("backend", Json.Str (if i mod 2 = 0 then "tree" else "vm"));
            ("src", Json.Str (Printf.sprintf "main = %d + %d" i i)) ]
      else
        Json.Obj
          [ ("op", Json.Str "check");
            ( "src",
              Json.Str
                (if i mod 7 = 0 then Printf.sprintf "main = \"x%d\" + 1" i
                 else Printf.sprintf "h%d x = x + %d\nmain = h%d 1" i i i) ) ])

let tests =
  [
    ( "cli",
      [
        case "run prints the result" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "run"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check string) "output" "42\n" out));
        case "check prints user types only" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "check"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check string) "output"
                  "double :: Num a => a -> a\nmain :: Int\n" out));
        case "counters reports dictionary operations" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "counters"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check bool) "result line" true
                  (Helpers.contains ~needle:"result: 42" out);
                Alcotest.(check bool) "counters line" true
                  (Helpers.contains ~needle:"dict-constructions=" out)));
        case "core shows the dictionary translation" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "core"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check bool) "has dict lambda" true
                  (Helpers.contains ~needle:"d$Num" out)));
        case "strategy tags agrees" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "run"; "-s"; "tags"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check string) "output" "42\n" out));
        case "optimization flag accepted" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "run"; "-O"; "all"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check string) "output" "42\n" out));
        case "type errors exit 1 with a located message" (fun () ->
            with_program "main = 1 + 'c'\n" (fun path ->
                let code, out = run_mhc [ "run"; path ] in
                Alcotest.(check int) "exit" 1 code;
                Alcotest.(check bool) "message" true
                  (Helpers.contains ~needle:"no instance for 'Num Char'" out)));
        case "runtime errors exit 2" (fun () ->
            with_program "main = head ([] :: [Int])\n" (fun path ->
                let code, out = run_mhc [ "run"; path ] in
                Alcotest.(check int) "exit" 2 code;
                Alcotest.(check bool) "message" true
                  (Helpers.contains ~needle:"non-exhaustive" out)));
        case "warnings go to stderr but do not fail the run" (fun () ->
            with_program "f (Just x) = x\nmain = f (Just 5)\n" (fun path ->
                let code, out = run_mhc [ "run"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check bool) "warning shown" true
                  (Helpers.contains ~needle:"non-exhaustive" out);
                Alcotest.(check bool) "result shown" true
                  (Helpers.contains ~needle:"5" out)));
        case "stats reports checker instrumentation" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "stats"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check bool) "has placeholders" true
                  (Helpers.contains ~needle:"placeholders-created=" out)));
        case "stats --json emits checker counters and phase spans" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "stats"; "--json"; path ] in
                Alcotest.(check int) "exit" 0 code;
                match Tc_obs.Json.parse out with
                | Error e -> Alcotest.failf "not JSON (%s): %s" e out
                | Ok j ->
                    let member k v =
                      match Tc_obs.Json.member k v with
                      | Some x -> x
                      | None -> Alcotest.failf "stats lacks %S" k
                    in
                    ignore (member "placeholders_created" (member "checker" j));
                    (match member "spans" (member "metrics" j) with
                    | Tc_obs.Json.List (_ :: _) -> ()
                    | _ -> Alcotest.fail "expected compile spans")));
        case "stats --json --stable is identical across runs" (fun () ->
            with_program demo (fun path ->
                let args = [ "stats"; "--json"; "--stable"; path ] in
                let code1, out1 = run_mhc args in
                let code2, out2 = run_mhc args in
                Alcotest.(check int) "exit" 0 code1;
                Alcotest.(check int) "exit" 0 code2;
                Alcotest.(check string) "deterministic" out1 out2));
        case "run --metrics FILE writes a parseable snapshot" (fun () ->
            with_program demo (fun path ->
                let mfile = Filename.temp_file "metrics" ".json" in
                Fun.protect
                  ~finally:(fun () -> Sys.remove mfile)
                  (fun () ->
                    let code, out =
                      run_mhc [ "run"; "--metrics"; mfile; path ]
                    in
                    Alcotest.(check int) "exit" 0 code;
                    Alcotest.(check string) "result still printed" "42\n" out;
                    let ic = open_in_bin mfile in
                    let text =
                      Fun.protect
                        ~finally:(fun () -> close_in_noerr ic)
                        (fun () ->
                          really_input_string ic (in_channel_length ic))
                    in
                    match Tc_obs.Json.parse text with
                    | Error e -> Alcotest.failf "metrics file not JSON: %s" e
                    | Ok j ->
                        Alcotest.(check bool) "has spans" true
                          (Tc_obs.Json.member "spans" j <> None))));
        case "check --metrics - prints the snapshot to stdout" (fun () ->
            with_program demo (fun path ->
                let code, out = run_mhc [ "check"; "--metrics"; "-"; path ] in
                Alcotest.(check int) "exit" 0 code;
                Alcotest.(check bool) "snapshot inline" true
                  (Helpers.contains ~needle:{|"spans"|} out)));
        case "repl evaluates piped input" (fun () ->
            let code, text = repl "double x = x + x\ndouble 4\n:t double\n:q\n" in
            Alcotest.(check int) "exit" 0 code;
            Alcotest.(check bool) "evaluated" true
              (Helpers.contains ~needle:"8" text);
            Alcotest.(check bool) "typed" true
              (Helpers.contains ~needle:"double :: Num a => a -> a" text));
        case "check reports every error in one run and exits 1" (fun () ->
            with_program "f x = = x\n\ng :: Int\ng = True\n\nmain = show []\n"
              (fun path ->
                let code, out = run_mhc [ "check"; path ] in
                Alcotest.(check int) "exit" 1 code;
                List.iter
                  (fun needle ->
                    Alcotest.(check bool) needle true
                      (Helpers.contains ~needle out))
                  [ "parse error: expected an expression";
                    "cannot unify 'Bool' with 'Int'";
                    "ambiguous overloading" ]));
        case "check --json emits the machine-readable report" (fun () ->
            with_program "g :: Int\ng = True\nmain = 0\n" (fun path ->
                let code, out = run_mhc [ "check"; "--json"; path ] in
                Alcotest.(check int) "exit" 1 code;
                List.iter
                  (fun needle ->
                    Alcotest.(check bool) needle true
                      (Helpers.contains ~needle out))
                  [ "\"diagnostics\""; "\"severity\": \"error\"";
                    "\"errors\": 1"; "\"warnings\": 0"; "\"ice\": 0";
                    "\"line\": 2" ]));
        case "check continues past a failing file in a batch" (fun () ->
            with_program "broken = )\n" (fun bad ->
                with_program demo (fun good ->
                    let code, out = run_mhc [ "check"; bad; good ] in
                    Alcotest.(check int) "exit" 1 code;
                    Alcotest.(check bool) "bad file reported" true
                      (Helpers.contains ~needle:"parse error" out);
                    (* the clean file's types still come out *)
                    Alcotest.(check bool) "good file typed" true
                      (Helpers.contains
                         ~needle:"double :: Num a => a -> a" out))));
        case "check --max-errors truncates with a notice" (fun () ->
            let buf = Buffer.create 256 in
            for i = 1 to 10 do
              Buffer.add_string buf
                (Printf.sprintf "v%d :: Int\nv%d = 'c'\n" i i)
            done;
            Buffer.add_string buf "main = 0\n";
            with_program (Buffer.contents buf) (fun path ->
                let code, out =
                  run_mhc [ "check"; "--max-errors"; "2"; path ]
                in
                Alcotest.(check int) "exit" 1 code;
                Alcotest.(check bool) "truncation notice" true
                  (Helpers.contains ~needle:"too many errors" out)));
        case "check reports an unreadable file and keeps going" (fun () ->
            with_program demo (fun good ->
                let code, out =
                  run_mhc [ "check"; "/nonexistent/nope.mhs"; good ]
                in
                Alcotest.(check int) "exit" 1 code;
                Alcotest.(check bool) "read error reported" true
                  (Helpers.contains ~needle:"cannot read" out);
                Alcotest.(check bool) "good file typed" true
                  (Helpers.contains ~needle:"double :: Num a => a -> a" out)));
        case "run exits 3 on step-budget exhaustion" (fun () ->
            with_program "loop n = loop (n + 1)\nmain = loop (0 :: Int)\n"
              (fun path ->
                let code, out = run_mhc [ "run"; "--fuel"; "10000"; path ] in
                Alcotest.(check int) "exit" 3 code;
                Alcotest.(check bool) "classified" true
                  (Helpers.contains ~needle:"resource exhausted: steps" out)));
        case "run exits 3 when a divergent program hits --timeout" (fun () ->
            with_program "loop n = loop (n + 1)\nmain = loop (0 :: Int)\n"
              (fun path ->
                let code, out =
                  run_mhc [ "run"; "--backend"; "vm"; "--timeout"; "200"; path ]
                in
                Alcotest.(check int) "exit" 3 code;
                Alcotest.(check bool) "classified" true
                  (Helpers.contains ~needle:"resource exhausted: wall-clock"
                     out)));
        case "run --inject contains a runtime fault as an ICE (exit 2)"
          (fun () ->
            with_program demo (fun path ->
                let code, out =
                  run_mhc [ "run"; "--inject"; "eval-step:1:1"; path ]
                in
                Alcotest.(check int) "exit" 2 code;
                Alcotest.(check bool) "contained" true
                  (Helpers.contains ~needle:"internal error" out)));
        case "run --inject oom exits 3, not a crash" (fun () ->
            with_program demo (fun path ->
                let code, out =
                  run_mhc [ "run"; "--inject"; "oom:1:1"; path ]
                in
                Alcotest.(check int) "exit" 3 code;
                Alcotest.(check bool) "classified" true
                  (Helpers.contains ~needle:"resource exhausted: memory" out)));
        case "serve refuses --inject worker-crash under one worker (exit 2)"
          (fun () ->
            List.iter
              (fun args ->
                let what = String.concat " " args in
                let code, lines, err =
                  serve_run args [ Json.Obj [ ("op", Json.Str "ping") ] ]
                in
                Alcotest.(check int) (what ^ ": exit") 2 code;
                Alcotest.(check (list string)) (what ^ ": no response") []
                  lines;
                Alcotest.(check bool) (what ^ ": one line naming the point")
                  true
                  (Helpers.contains ~needle:"worker-crash" err
                  && List.length (String.split_on_char '\n' (String.trim err))
                     = 1))
              [
                [ "--inject"; "worker-crash" ];
                [ "--workers"; "1"; "--inject"; "infer,worker-crash:0" ];
              ]);
        case "serve accepts other fault points, or worker-crash with workers"
          (fun () ->
            List.iter
              (fun args ->
                let what = String.concat " " args in
                let code, lines, _ =
                  serve_run args [ Json.Obj [ ("op", Json.Str "ping") ] ]
                in
                Alcotest.(check int) (what ^ ": exit") 0 code;
                Alcotest.(check int) (what ^ ": answered") 1
                  (List.length lines))
              [
                [ "--inject"; "conn-drop" ];
                [ "--workers"; "2"; "--inject"; "worker-crash:0" ];
              ]);
        case "trace --full adds the prelude's events to the default's" (fun () ->
            (* placeholder numbers depend on what was checked before *)
            let events args =
              let code, out = run_mhc args in
              Alcotest.(check int) (String.concat " " args) 0 code;
              String.split_on_char '\n' out
              |> List.filter (( <> ) "")
              |> List.map (fun l ->
                     match String.split_on_char ' ' l with
                     | "placeholder" :: _ :: rest ->
                         String.concat " " ("placeholder" :: "#" :: rest)
                     | _ -> l)
              |> List.sort compare
            in
            with_program demo (fun path ->
                let default = events [ "trace"; path ]
                and full = events [ "trace"; "--full"; path ] in
                let rec sub xs ys =
                  match (xs, ys) with
                  | [], _ -> true
                  | _, [] -> false
                  | x :: xs', y :: ys' ->
                      if x = y then sub xs' ys'
                      else if y < x then sub xs ys'
                      else false
                in
                Alcotest.(check bool) "the default's events, all of them" true
                  (default <> [] && sub default full);
                Alcotest.(check bool) "and the prelude's" true
                  (List.exists
                     (Helpers.contains ~needle:"<prelude>")
                     full)));
        case "check --inject contains a front-end fault as one ICE (exit 2)"
          (fun () ->
            with_program demo (fun path ->
                let code, out =
                  run_mhc [ "check"; "--inject"; "infer:1:1"; path ]
                in
                Alcotest.(check int) "exit" 2 code;
                Alcotest.(check bool) "contained" true
                  (Helpers.contains ~needle:"internal error" out)));
        case "profile --emit-spec round-trips through run --spec-profile"
          (fun () ->
            let src =
              "mySum :: Num a => a -> a\n\
               mySum n = if n == 0 then 0 else n + mySum (n - 1)\n\
               main = mySum (40 :: Int)\n"
            in
            with_program src (fun path ->
                let spec = Filename.temp_file "spec" ".json" in
                let report = Filename.temp_file "specrep" ".json" in
                Fun.protect
                  ~finally:(fun () -> Sys.remove spec; Sys.remove report)
                  (fun () ->
                    let code, _ =
                      run_mhc [ "profile"; "--emit-spec"; spec; path ]
                    in
                    Alcotest.(check int) "profile exit" 0 code;
                    let read f =
                      let ic = open_in_bin f in
                      Fun.protect
                        ~finally:(fun () -> close_in_noerr ic)
                        (fun () ->
                          really_input_string ic (in_channel_length ic))
                    in
                    Alcotest.(check bool) "spec profile is typed JSON" true
                      (Helpers.contains ~needle:"mhc-spec-profile"
                         (read spec));
                    let code_plain, out_plain = run_mhc [ "run"; path ] in
                    let code_spec, out_spec =
                      run_mhc
                        [ "run"; "--spec-profile"; spec;
                          "--spec-report"; report; path ]
                    in
                    Alcotest.(check int) "plain exit" 0 code_plain;
                    Alcotest.(check int) "spec exit" 0 code_spec;
                    Alcotest.(check string) "same result" out_plain out_spec;
                    (* and on the VM backend *)
                    let code_vm, out_vm =
                      run_mhc
                        [ "run"; "--backend"; "vm"; "--spec-profile"; spec;
                          path ]
                    in
                    Alcotest.(check int) "vm exit" 0 code_vm;
                    Alcotest.(check string) "vm agrees" out_plain out_vm;
                    let rep = read report in
                    Alcotest.(check bool) "report profile-guided" true
                      (Helpers.contains ~needle:{|"profile_guided": true|}
                         rep);
                    Alcotest.(check bool) "report is not the null report"
                      false
                      (Helpers.contains ~needle:{|"clones": 0|} rep))));
        case "a profile matching nothing leaves the program unchanged"
          (fun () ->
            (* the cold tail: a spec profile recorded from a different
               program attributes no hits, so no binding is hot and the
               compile is byte-for-byte the unspecialized one *)
            with_program demo (fun other ->
                let src = "main = sum (enumFromTo 1 10)\n" in
                with_program src (fun path ->
                    let spec = Filename.temp_file "spec" ".json" in
                    let report = Filename.temp_file "specrep" ".json" in
                    Fun.protect
                      ~finally:(fun () ->
                        Sys.remove spec; Sys.remove report)
                      (fun () ->
                        let code, _ =
                          run_mhc [ "profile"; "--emit-spec"; spec; other ]
                        in
                        Alcotest.(check int) "profile exit" 0 code;
                        let code, out =
                          run_mhc
                            [ "run"; "--spec-profile"; spec;
                              "--spec-report"; report; path ]
                        in
                        Alcotest.(check int) "exit" 0 code;
                        Alcotest.(check string) "result" "55\n" out;
                        let ic = open_in_bin report in
                        let rep =
                          Fun.protect
                            ~finally:(fun () -> close_in_noerr ic)
                            (fun () ->
                              really_input_string ic (in_channel_length ic))
                        in
                        Alcotest.(check bool) "zero clones" true
                          (Helpers.contains ~needle:{|"clones": 0|} rep)))));
        case "run --spec-profile rejects a broken profile with exit 1"
          (fun () ->
            with_program demo (fun path ->
                with_program "this is not json" (fun bogus ->
                    let code, out =
                      run_mhc [ "run"; "--spec-profile"; bogus; path ]
                    in
                    Alcotest.(check int) "exit" 1 code;
                    Alcotest.(check bool) "diagnosed" true
                      (Helpers.contains ~needle:"not valid JSON" out))));
        case "serve --spec-profile answers run requests identically" (fun () ->
            with_program demo (fun path ->
                let spec = Filename.temp_file "spec" ".json" in
                Fun.protect
                  ~finally:(fun () -> Sys.remove spec)
                  (fun () ->
                    let code, _ =
                      run_mhc [ "profile"; "--emit-spec"; spec; path ]
                    in
                    Alcotest.(check int) "profile exit" 0 code;
                    let out = Filename.temp_file "serve" ".out" in
                    let request =
                      (* as a printf *argument* (not its format string) the
                         \n stays a two-character JSON escape *)
                      "{\"op\":\"run\",\"src\":\"double :: Num a => a -> \
                       a\\ndouble x = x + x\\nmain = double 21\"}"
                    in
                    let cmd =
                      Printf.sprintf
                        "printf '%%s\\n' %s | %s serve --spec-profile %s \
                         > %s 2>/dev/null"
                        (Filename.quote request) (Filename.quote mhc)
                        (Filename.quote spec) (Filename.quote out)
                    in
                    let code = Sys.command cmd in
                    let ic = open_in_bin out in
                    let text =
                      Fun.protect
                        ~finally:(fun () ->
                          close_in_noerr ic; Sys.remove out)
                        (fun () ->
                          really_input_string ic (in_channel_length ic))
                    in
                    Alcotest.(check int) "exit" 0 code;
                    Alcotest.(check bool) "answered with the result" true
                      (Helpers.contains ~needle:"\"value\":\"42\"" text))));
        case "serve --spec-profile runs a request's opt under the profile"
          (fun () ->
            (* no [opt] means the spec pipeline; ["opt": X] runs X alone
               under the profile, as [mhc run --spec-profile -O X] does.
               Each request is sent twice: a miss, then a cache hit. *)
            let src = my_sum 40 in
            with_program src @@ fun path ->
            with_spec_profile src @@ fun spec sp ->
            let levels = [ None; Some "simplify"; Some "spec" ] in
            let request opt =
              Json.Obj
                (("op", Json.Str "run") :: ("src", Json.Str src)
                :: (match opt with
                   | None -> []
                   | Some x -> [ ("opt", Json.Str x) ]))
            in
            let code, lines =
              serve_lines [ "--spec-profile"; spec ]
                (List.concat_map (fun o -> [ request o; request o ]) levels)
            in
            Alcotest.(check int) "serve exit" 0 code;
            Alcotest.(check int) "one response per request" 6
              (List.length lines);
            let selections =
              List.mapi
                (fun i opt ->
                  let name = Option.value ~default:"(no opt)" opt in
                  let miss = List.nth lines (2 * i) in
                  Alcotest.(check string) (name ^ ": the hit answers alike")
                    miss
                    (List.nth lines ((2 * i) + 1));
                  let code, out =
                    run_mhc
                      ([ "run"; "--spec-profile"; spec ]
                      @ (match opt with None -> [] | Some x -> [ "-O"; x ])
                      @ [ path ])
                  in
                  Alcotest.(check int) (name ^ ": run exit") 0 code;
                  Alcotest.(check (option string))
                    (name ^ ": value is mhc run's stdout")
                    (Some out)
                    (match json_field "value" miss with
                    | Some (Json.Str v) -> Some (v ^ "\n")
                    | _ -> None);
                  let passes =
                    Option.get
                      (Tc_opt.Opt.of_string
                         (Option.value ~default:"spec" opt))
                  in
                  let opts =
                    {
                      Pipeline.default_options with
                      Pipeline.specialise =
                        { Pipeline.default_spec with spec_profile = Some sp };
                    }
                  in
                  let direct =
                    Pipeline.exec
                      (Pipeline.optimize passes
                         (Pipeline.compile ~opts ~file:"<serve>" src))
                  in
                  let pairs = Tc_eval.Counters.pairs direct.Pipeline.counters in
                  Alcotest.(check (list (pair string int)))
                    (name ^ ": counters are the direct pipeline's")
                    pairs
                    (match json_field "counters" miss with
                    | Some (Json.Obj fs) ->
                        List.map
                          (function
                            | k, Json.Int v -> (k, v)
                            | k, _ -> (k, -1))
                          fs
                    | _ -> []);
                  List.assoc "selections" pairs)
                levels
            in
            (* simplify alone keeps the dispatch the spec pipeline removes:
               serve no longer appends the spec passes to a request's opt *)
            Alcotest.(check bool) "simplify is not specialized" true
              (List.nth selections 1 > List.nth selections 2));
        case "serve --cache-dir keys specialized entries by profile"
          (fun () ->
            (* profiles A and B differ in their hit counts, so in their
               digests: a restart under B must miss A's specialized entry
               on disk, and a restart under A must still find it *)
            let src = my_sum 40 in
            with_spec_profile src @@ fun spec_a _ ->
            with_spec_profile (my_sum 30) @@ fun spec_b _ ->
            let dir = Filename.temp_file "mhc_cachedir" "" in
            Sys.remove dir;
            Sys.mkdir dir 0o755;
            let mfile = Filename.temp_file "mhc_cachedir" ".json" in
            let cleanup () =
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir;
              Sys.remove mfile
            in
            Fun.protect ~finally:cleanup @@ fun () ->
            let serve spec =
              let code, lines =
                serve_lines
                  [ "--cache-dir"; dir; "--spec-profile"; spec;
                    "--metrics"; mfile ]
                  [ Json.Obj [ ("op", Json.Str "run"); ("src", Json.Str src) ] ]
              in
              Alcotest.(check int) "serve exit" 0 code;
              Alcotest.(check (option string)) "the right answer"
                (Some "820")
                (match lines with
                | [ l ] -> (
                    match json_field "value" l with
                    | Some (Json.Str v) -> Some v
                    | _ -> None)
                | _ -> None);
              ( metrics_counter mfile "scale/cache/persist/hits",
                metrics_counter mfile "scale/cache/persist/misses" )
            in
            Alcotest.(check (pair int int)) "profile A: a cold miss" (0, 1)
              (serve spec_a);
            Alcotest.(check (pair int int))
              "restart under B: a miss, not A's entry" (0, 1) (serve spec_b);
            Alcotest.(check (pair int int)) "restart under A: a hit" (1, 0)
              (serve spec_a));
        case "serve answers over stdin and drains at EOF" (fun () ->
            with_program demo (fun _ ->
                let out = Filename.temp_file "serve" ".out" in
                let cmd =
                  Printf.sprintf
                    "printf '%s\\n%s\\n' | %s serve > %s 2>/dev/null"
                    "{\"op\":\"ping\",\"id\":1}"
                    "{\"op\":\"run\",\"src\":\"main = 1 + 1\"}"
                    (Filename.quote mhc) (Filename.quote out)
                in
                let code = Sys.command cmd in
                let ic = open_in_bin out in
                let text =
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic; Sys.remove out)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                Alcotest.(check int) "exit" 0 code;
                let lines =
                  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
                in
                Alcotest.(check int) "one response per request" 2
                  (List.length lines);
                Alcotest.(check bool) "ping ok" true
                  (Helpers.contains ~needle:"\"ok\":true" (List.nth lines 0));
                Alcotest.(check bool) "run value" true
                  (Helpers.contains ~needle:"\"value\":\"2\""
                     (List.nth lines 1))));
        case "serve --cache-dir survives a real process restart warm"
          (fun () ->
            with_program demo (fun path ->
                let dir = Filename.temp_file "mhc_cachedir" "" in
                Sys.remove dir;
                Sys.mkdir dir 0o755;
                let mfile = Filename.temp_file "mhc_cachedir" ".json" in
                let cleanup () =
                  Array.iter
                    (fun f ->
                      try Sys.remove (Filename.concat dir f)
                      with Sys_error _ -> ())
                    (try Sys.readdir dir with Sys_error _ -> [||]);
                  (try Sys.rmdir dir with Sys_error _ -> ());
                  try Sys.remove mfile with Sys_error _ -> ()
                in
                Fun.protect ~finally:cleanup @@ fun () ->
                let serve ?(first = "") extra =
                  Sys.command
                    (Printf.sprintf
                       "printf '%s%s\\n' | %s serve --cache-dir %s %s \
                        >/dev/null 2>&1"
                       first
                       "{\"op\":\"run\",\"src\":\"main = 1 + 1\"}"
                       (Filename.quote mhc) (Filename.quote dir) extra)
                in
                Alcotest.(check int) "first server exits clean" 0 (serve "");
                (* a different process, same directory: starts warm. It
                   compiles a new program first, so both processes build
                   a prelude snapshot *)
                Alcotest.(check int) "second server exits clean" 0
                  (serve
                     ~first:"{\"op\":\"run\",\"src\":\"main = 2 + 2\"}\\n"
                     (Printf.sprintf "--metrics %s" (Filename.quote mfile)));
                let metrics =
                  let ic = open_in_bin mfile in
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () ->
                      really_input_string ic (in_channel_length ic))
                in
                Alcotest.(check bool) "restart hit the disk tier" true
                  (Helpers.contains
                     ~needle:"\"scale/cache/persist/hits\": 1" metrics);
                Alcotest.(check bool) "the second process built a snapshot"
                  true
                  (Helpers.contains
                     ~needle:"\"prelude/snapshot_builds\": 1" metrics);
                Alcotest.(check bool) "the directory has a writer file" true
                  (Sys.file_exists (Filename.concat dir "writer"));
                Alcotest.(check bool) "and no intern table" false
                  (Sys.file_exists (Filename.concat dir "intern.bin"));
                Alcotest.(check bool) "the directory was not wiped" false
                  (Helpers.contains ~needle:"persist/wiped" metrics);
                (* stats --json surfaces the directory summary *)
                let code, out =
                  run_mhc
                    [ "stats"; "--json"; "--stable"; "--cache-dir"; dir;
                      path ]
                in
                Alcotest.(check int) "stats exit" 0 code;
                Alcotest.(check bool) "both programs' entries reported" true
                  (Helpers.contains ~needle:"\"entries\": 2" out);
                Alcotest.(check bool) "nothing corrupt" true
                  (Helpers.contains ~needle:"\"corrupt\": 0" out)));
        case "serve --cache-dir restarts warm across different histories"
          (fun () ->
            let dir = Filename.temp_file "mhc_histories" "" in
            Sys.remove dir;
            Sys.mkdir dir 0o755;
            let mfile = Filename.temp_file "mhc_histories" ".json" in
            Fun.protect
              ~finally:(fun () ->
                Array.iter
                  (fun f -> Sys.remove (Filename.concat dir f))
                  (Sys.readdir dir);
                Sys.rmdir dir;
                Sys.remove mfile)
            @@ fun () ->
            let programs =
              (Sys.readdir "../examples/programs" |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".mhs")
              |> List.sort compare
              |> List.map (Filename.concat "../examples/programs"))
              @ [ "alpha_zed" ]
            in
            let src p =
              if p = "alpha_zed" then alpha_zed_src
              else In_channel.with_open_bin p In_channel.input_all
            in
            let shared =
              List.concat_map
                (fun p ->
                  List.map
                    (fun op ->
                      Json.Obj
                        [ ("op", Json.Str op); ("src", Json.Str (src p)) ])
                    [ "run"; "compile" ])
                programs
            in
            let compile s =
              Json.Obj [ ("op", Json.Str "compile"); ("src", Json.Str s) ]
            in
            (* the first process interns Zed first; the second, Alpha *)
            let code, _ =
              serve_lines [ "--cache-dir"; dir ] (compile zed_src :: shared)
            in
            Alcotest.(check int) "first server exits clean" 0 code;
            let code, lines =
              serve_lines
                [ "--cache-dir"; dir; "--metrics"; mfile ]
                (compile
                   "class Alpha a where\n  alpha :: a -> Int\nmain = 1\n"
                :: shared)
            in
            Alcotest.(check int) "second server exits clean" 0 code;
            Alcotest.(check int) "every shared request from disk"
              (List.length shared)
              (metrics_counter mfile "scale/cache/persist/hits");
            let words s = String.split_on_char ' ' (String.trim s) in
            List.iteri
              (fun k p ->
                let file, cleanup =
                  if p <> "alpha_zed" then (p, ignore)
                  else begin
                    let f = Filename.temp_file "alpha_zed" ".mhs" in
                    Out_channel.with_open_bin f (fun oc ->
                        output_string oc alpha_zed_src);
                    (f, fun () -> Sys.remove f)
                  end
                in
                Fun.protect ~finally:cleanup @@ fun () ->
                let run = List.nth lines (1 + (2 * k))
                and comp = List.nth lines (2 + (2 * k)) in
                Alcotest.(check (option string)) (p ^ ": value")
                  (Some (String.trim (mhc_stdout [ "run"; file ])))
                  (match json_field "value" run with
                   | Some (Json.Str v) -> Some v
                   | _ -> None);
                let cli_counters =
                  words (List.nth (String.split_on_char '\n'
                                     (mhc_stdout [ "counters"; file ])) 1)
                in
                List.iter
                  (fun (field, word) ->
                    match
                      Option.bind (json_field "counters" run)
                        (Json.member field)
                    with
                    | Some (Json.Int n) ->
                        Alcotest.(check bool) (p ^ ": " ^ word) true
                          (List.mem (Printf.sprintf "%s=%d" word n)
                             cli_counters)
                    | _ -> Alcotest.failf "%s: no %s counter" p field)
                  [
                    ("steps", "steps");
                    ("dict_constructions", "dict-constructions");
                    ("selections", "selections");
                  ];
                let served =
                  match json_field "schemes" comp with
                  | Some (Json.Obj ss) ->
                      List.map
                        (fun (n, v) ->
                          match v with
                          | Json.Str t -> n ^ " :: " ^ t
                          | _ -> Alcotest.failf "%s: scheme of %s" p n)
                        ss
                  | _ -> Alcotest.failf "%s: no schemes in %s" p comp
                in
                Alcotest.(check (list string)) (p ^ ": schemes")
                  (List.sort compare
                     (List.filter (fun l -> Helpers.contains ~needle:" :: " l)
                        (String.split_on_char '\n'
                           (mhc_stdout [ "check"; file ]))))
                  (List.sort compare served))
              programs);
        case "serve --workers 4 builds one snapshot per option combination"
          (fun () ->
            let mfile = Filename.temp_file "mhc_snapshots" ".json" in
            Fun.protect ~finally:(fun () -> Sys.remove mfile) @@ fun () ->
            let reqs =
              List.concat_map
                (fun i ->
                  List.map
                    (fun strategy ->
                      Printf.sprintf
                        "{\"op\":\"run\",\"strategy\":\"%s\",\"src\":\"main = %d\"}"
                        strategy i)
                    [ "dict"; "dict-flat"; "tags" ])
                (List.init 8 Fun.id)
            in
            let code =
              Sys.command
                (Printf.sprintf
                   "printf '%s\\n' | %s serve --workers 4 --metrics %s \
                    >/dev/null 2>&1"
                   (String.concat "\\n" reqs)
                   (Filename.quote mhc) (Filename.quote mfile))
            in
            Alcotest.(check int) "exit" 0 code;
            let metrics = In_channel.with_open_bin mfile In_channel.input_all in
            (* dict and tags check on the nested layout, dict-flat on the
               flat one: two combinations, two builds *)
            Alcotest.(check bool) "exactly two builds" true
              (Helpers.contains ~needle:"\"prelude/snapshot_builds\": 2"
                 metrics);
            Alcotest.(check bool) "snapshot size reported" true
              (Helpers.contains ~needle:"\"prelude/snapshot_words\"" metrics));
        case "run and serve report each failure class through one table"
          (fun () ->
            (* the first line mhc run prints equals serve's error message
               for the same source (file name and ICE stage aside), and
               the exit code follows the class *)
            let loop = "loop n = loop (n + 1)\nmain = loop (0 :: Int)\n" in
            List.iter
              (fun (what, src, args, serve_args, fields, cls, code) ->
                with_program src (fun path ->
                    let got_code, out = run_mhc ([ "run" ] @ args @ [ path ]) in
                    let req =
                      Json.Obj
                        ([ ("op", Json.Str "run"); ("src", Json.Str src) ]
                        @ fields)
                    in
                    let _, lines = serve_lines serve_args [ req ] in
                    let err =
                      match json_field "error" (List.hd lines) with
                      | Some e -> e
                      | None -> Alcotest.failf "%s: serve answered ok" what
                    in
                    let field name =
                      match Json.member name err with
                      | Some (Json.Str s) -> s
                      | _ -> Alcotest.failf "%s: no error.%s" what name
                    in
                    Alcotest.(check string) (what ^ ": class") cls (field "class");
                    Alcotest.(check int) (what ^ ": exit") code got_code;
                    let cli =
                      first_line out
                      |> replace_first ~sub:path ~by:"<serve>"
                      |> replace_first ~sub:"internal error in mhc:"
                           ~by:"internal error in serve:"
                    in
                    Alcotest.(check string) (what ^ ": message")
                      (first_line (field "message")) cli))
              [
                ("compile error", "main = 1 + 'c'\n", [], [], [], "compile", 1);
                ("runtime error", "main = div 1 (0 :: Int)\n", [], [], [],
                 "runtime", 2);
                ("pattern-match failure", "main = head ([] :: [Int])\n", [],
                 [], [], "runtime", 2);
                ("user error", "main = (error \"boom\" :: Int)\n", [], [], [],
                 "runtime", 2);
                ("fuel", loop, [ "--fuel"; "10000" ], [],
                 [ ("fuel", Json.Int 10000) ], "resource", 3);
                ("injected ICE", demo, [ "--inject"; "infer" ],
                 [ "--inject"; "infer" ], [], "ice", 2);
              ]);
        case "every spelling works on both front doors alike" (fun () ->
            let spellings =
              List.map (fun (s, _) -> ("-s", "strategy", s)) Pipeline.strategies
              @ List.map (fun (s, _) -> ("--backend", "backend", s))
                  Pipeline.backends
              @ List.map (fun (s, _) -> ("--eval", "mode", s)) Pipeline.modes
            in
            with_program demo (fun path ->
                let _, lines =
                  serve_lines []
                    (List.map
                       (fun (_, field, s) ->
                         Json.Obj
                           [ ("op", Json.Str "run"); ("src", Json.Str demo);
                             (field, Json.Str s) ])
                       spellings)
                in
                List.iter2
                  (fun (flag, _, s) line ->
                    let code, out = run_mhc [ "run"; flag; s; path ] in
                    Alcotest.(check int) (flag ^ " " ^ s) 0 code;
                    Alcotest.(check string) (flag ^ " " ^ s) "42\n" out;
                    Alcotest.(check bool) ("serve " ^ s) true
                      (json_field "value" line = Some (Json.Str "42")))
                  spellings lines));
        case "each strategy's name is one of its spellings" (fun () ->
            List.iter
              (fun s ->
                let name = Pipeline.strategy_name s in
                Alcotest.(check bool) name true
                  (List.assoc_opt name Pipeline.strategies = Some s))
              [ Pipeline.Dicts; Pipeline.Dicts_flat; Pipeline.Tags ]);
        case "repl reports an unreadable :load and carries on" (fun () ->
            let code, out = repl ":load /nonexistent/nope.mhs\n1 + 1\n:q\n" in
            Alcotest.(check int) "exit" 0 code;
            Alcotest.(check bool) "read error reported" true
              (Helpers.contains
                 ~needle:"error: cannot read /nonexistent/nope.mhs: No such file"
                 out);
            Alcotest.(check bool) "session goes on" true
              (Helpers.contains ~needle:"mhs> 2\n" out));
        case "repl reports a runtime error and carries on" (fun () ->
            let code, out = repl "head ([] :: [Int])\n1 + 1\n" in
            Alcotest.(check int) "exit" 0 code;
            Alcotest.(check bool) "classified" true
              (Helpers.contains
                 ~needle:"pattern-match failure: non-exhaustive patterns in 'head'"
                 out);
            Alcotest.(check bool) "session goes on" true
              (Helpers.contains ~needle:"mhs> 2\n" out));
        case "bench serve --cache-mb 0 caches nothing" (fun () ->
            let code, out =
              run_mhc
                [ "bench"; "serve"; "--cache-mb"; "0"; "--requests"; "8";
                  "--clients"; "2" ]
            in
            Alcotest.(check int) "exit" 0 code;
            Alcotest.(check bool) "no hits" true
              (json_field "cache_hits" out = Some (Json.Int 0)));
        case "serve --listen rejects IPv6 literals with a clear diagnostic"
          (fun () ->
            List.iter
              (fun addr ->
                let code, out = run_mhc [ "serve"; "--listen"; addr ] in
                Alcotest.(check int) (addr ^ " exits 2") 2 code;
                Alcotest.(check bool) (addr ^ " says IPv4-only") true
                  (Helpers.contains ~needle:"IPv4-only" out))
              [ "[::1]:8080"; "::1:8080" ]);
      ] );
    ( "cli live view",
      [
        case "at quiescence a live metrics equals the drain summary, less itself"
          (fun () ->
            List.iter
              (fun workers ->
                let mfile = Filename.temp_file "mhc_view" ".json" in
                Fun.protect ~finally:(fun () -> Sys.remove mfile) @@ fun () ->
                let events = ref [] in
                let live, rest, code =
                  with_serve
                    [ "--workers"; workers; "--metrics-every"; "20";
                      "--metrics"; mfile ]
                    (fun oc ic ->
                      List.iter (send oc) view_requests;
                      List.iter (fun _ -> ignore (response ic events)) view_requests;
                      send oc (Json.Obj [ ("op", Json.Str "metrics") ]);
                      member "metrics" (response ic events))
                in
                let events = List.rev !events @ List.map decode rest in
                let w = " (--workers " ^ workers ^ ")" in
                Alcotest.(check int) ("exit" ^ w) 0 code;
                let drained =
                  decode (In_channel.with_open_bin mfile In_channel.input_all)
                in
                Alcotest.(check reading_t) ("live = drained less itself" ^ w)
                  (pairs4 (less_one "metrics" (reading drained)))
                  (pairs4 (reading live));
                Alcotest.(check bool) ("the runs' counters" ^ w) true
                  (List.mem_assoc "run/steps"
                     (int_pairs (member "counters" live)));
                Alcotest.(check int) ("three snapshot lines" ^ w) 3
                  (List.length events);
                let last = List.nth events 2 in
                Alcotest.(check (option int)) ("last after 60" ^ w) (Some 60)
                  (Json.to_int (member "after_requests" last));
                Alcotest.(check reading_t) ("the last line = live" ^ w)
                  (pairs4 (reading live))
                  (pairs4 (reading (member "metrics" last)));
                List.iter
                  (fun snap ->
                    let requests, latency = latency_invariant snap in
                    Alcotest.(check int) ("invariant" ^ w) requests latency)
                  (drained :: live :: List.map (member "metrics") events))
              [ "1"; "2"; "4" ]);
        case "--workers 1 snapshot lines carry the compile cache" (fun () ->
            let code, lines =
              serve_lines
                [ "--workers"; "1"; "--metrics-every"; "2" ]
                (List.init 4 (fun i ->
                     Json.Obj
                       [ ("op", Json.Str "check");
                         ("src", Json.Str (Printf.sprintf "main = %d" i)) ]))
            in
            Alcotest.(check int) "exit" 0 code;
            let events =
              List.filter (fun l -> Json.member "event" (decode l) <> None) lines
            in
            Alcotest.(check int) "two snapshot lines" 2 (List.length events);
            List.iter
              (fun l ->
                Alcotest.(check bool) "scale/cache/misses in the line" true
                  (Helpers.contains ~needle:"\"scale/cache/misses\"" l))
              events);
        case "the drain-deadline file holds the requests and the pool" (fun () ->
            let mfile = Filename.temp_file "mhc_deadline" ".json" in
            Fun.protect ~finally:(fun () -> Sys.remove mfile) @@ fun () ->
            let err_r, err_w = Unix.pipe ~cloexec:true () in
            let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
            let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            let pid =
              Unix.create_process mhc
                [| mhc; "serve"; "--listen"; "127.0.0.1:0"; "--workers"; "2";
                   "--drain-timeout"; "300"; "--metrics"; mfile |]
                null_in null_out err_w
            in
            List.iter Unix.close [ err_w; null_in; null_out ];
            let errs = Unix.in_channel_of_descr err_r in
            let port =
              Scanf.sscanf (input_line errs) "serve: listening on %_s@:%d"
                Fun.id
            in
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let oc = Unix.out_channel_of_descr fd in
            let ic = Unix.in_channel_of_descr fd in
            send oc (Json.Obj [ ("op", Json.Str "ping") ]);
            ignore (response ic (ref []));
            (* a request that outlives the drain timeout *)
            send oc
              (Json.Obj
                 [ ("op", Json.Str "run"); ("timeout_ms", Json.Int 60_000);
                   ("src", Json.Str "loop n = loop (n + 1)\nmain = loop (0 :: Int)") ]);
            Unix.sleepf 0.3;
            Unix.kill pid Sys.sigterm;
            (* the drain must end within its timeout; give it 20 s *)
            let rec wait_exit n =
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ when n > 0 ->
                  Unix.sleepf 0.05;
                  wait_exit (n - 1)
              | 0, _ ->
                  Unix.kill pid Sys.sigkill;
                  ignore (Unix.waitpid [] pid);
                  Alcotest.fail "the drain outlived its timeout"
              | _, Unix.WEXITED c -> c
              | _ -> -1
            in
            let code = wait_exit 400 in
            (try Unix.close fd with Unix.Unix_error _ -> ());
            close_in_noerr errs;
            Alcotest.(check int) "a bounded exit 0" 0 code;
            let m = decode (In_channel.with_open_bin mfile In_channel.input_all) in
            let counters = int_pairs (member "counters" m) in
            let gauges = int_pairs (member "gauges" m) in
            Alcotest.(check (option int)) "the answered ping" (Some 1)
              (List.assoc_opt "serve/requests" counters);
            Alcotest.(check (option int)) "the listener" (Some 1)
              (List.assoc_opt "net/accepted" counters);
            List.iter
              (fun g ->
                Alcotest.(check bool) (g ^ " present") true
                  (List.mem_assoc g gauges))
              [ "scale/pool/queue_depth"; "scale/pool/queue_depth_now";
                "ident/interned"; "gc/major_heap_words" ]);
      ] );
  ]
