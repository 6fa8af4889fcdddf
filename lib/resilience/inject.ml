(** Deterministic fault injection; see the interface. *)

type point =
  | Lex
  | Parse
  | Static
  | Infer
  | Translate
  | Optimize
  | Eval_step
  | Vm_step
  | Render
  | Oom
  | Serve_transient
  | Worker_crash
  | Cache_write
  | Cache_read
  | Accept_fail
  | Conn_drop
  | Slow_read

let point_name = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Static -> "static"
  | Infer -> "infer"
  | Translate -> "translate"
  | Optimize -> "optimize"
  | Eval_step -> "eval-step"
  | Vm_step -> "vm-step"
  | Render -> "render"
  | Oom -> "oom"
  | Serve_transient -> "serve-transient"
  | Worker_crash -> "worker-crash"
  | Cache_write -> "cache-write"
  | Cache_read -> "cache-read"
  | Accept_fail -> "accept-fail"
  | Conn_drop -> "conn-drop"
  | Slow_read -> "slow-read"

let all_points =
  [ Lex; Parse; Static; Infer; Translate; Optimize; Eval_step; Vm_step;
    Render; Oom; Serve_transient; Worker_crash; Cache_write; Cache_read;
    Accept_fail; Conn_drop; Slow_read ]

let point_of_name s =
  List.find_opt (fun p -> point_name p = s) all_points

exception Fault of { point : point; detail : string }
exception Transient of { point : point; detail : string }

let () =
  Printexc.register_printer (function
    | Fault { point; detail } ->
        Some
          (Printf.sprintf "injected fault at %s%s" (point_name point)
             (if detail = "" then "" else " (" ^ detail ^ ")"))
    | Transient { point; detail } ->
        Some
          (Printf.sprintf "injected transient fault at %s%s"
             (point_name point)
             (if detail = "" then "" else " (" ^ detail ^ ")"))
    | _ -> None)

type plan = {
  seed : int;
  rate : float;
  points : point list;
  max_faults : int;
}

let plan ?(seed = 0) ?(rate = 1.0) ?(points = []) ?(max_faults = 0) () =
  { seed; rate; points; max_faults }

let parse_spec s =
  match String.split_on_char ':' s with
  | [] -> Error "empty --inject spec"
  | names :: rest -> (
      (* The point field is a comma-separated list so one armed plan can
         cover several points at once (a chaos run wanting worker crashes
         AND connection drops shares one rate and seed across both). *)
      let resolved =
        List.map
          (fun name -> (name, point_of_name name))
          (String.split_on_char ',' names)
      in
      match List.find_opt (fun (_, p) -> p = None) resolved with
      | Some (name, _) ->
          Error
            (Printf.sprintf "unknown injection point %S (one of: %s)" name
               (String.concat ", " (List.map point_name all_points)))
      | None -> (
          let points = List.filter_map snd resolved in
          let rate, seed =
            match rest with
            | [] -> (Some 1.0, Some 0)
            | [ r ] -> (float_of_string_opt r, Some 0)
            | [ r; sd ] -> (float_of_string_opt r, int_of_string_opt sd)
            | _ -> (None, None)
          in
          match (rate, seed) with
          | Some rate, Some seed when rate >= 0. && rate <= 1. && points <> []
            ->
              Ok { seed; rate; points; max_faults = 0 }
          | _ ->
              Error
                (Printf.sprintf
                   "bad --inject spec %S (expected point[,point...][:rate[:seed]])"
                   s)))

(* ------------------------------------------------------------------ *)
(* Global injector state.                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  plan : plan;
  mutable rng : int64;     (* splitmix64 state *)
  count : int Atomic.t;    (* faults fired since arm; bumped by any domain *)
}

let current : state option ref = ref None
let live = ref false

let arm p =
  current :=
    Some
      { plan = p; rng = Int64.of_int (p.seed lxor 0x9e3779b9);
        count = Atomic.make 0 };
  live := true

let disarm () =
  current := None;
  live := false

let armed () = Option.is_some !current

let fired () = match !current with Some s -> Atomic.get s.count | None -> 0

(* splitmix64: deterministic across platforms, no dependence on the
   global Random state (which user code or tests may perturb). *)
let next_unit_float (s : state) : float =
  let z = Int64.add s.rng 0x9e3779b97f4a7c15L in
  s.rng <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

(* Claim one fault slot. Under a cap, a domain that loses the race for
   the last slot fires nothing, so the cap is never overshot. *)
let rec claim count cap =
  let n = Atomic.get count in
  if cap > 0 && n >= cap then false
  else Atomic.compare_and_set count n (n + 1) || claim count cap

let hit ?(detail = "") (p : point) : unit =
  match !current with
  | None -> ()
  | Some s ->
      let pl = s.plan in
      let selected = pl.points = [] || List.memq p pl.points in
      let cap = pl.max_faults in
      if selected && (cap <= 0 || Atomic.get s.count < cap) then
        if next_unit_float s < pl.rate && claim s.count cap then begin
          match p with
          | Oom -> raise Out_of_memory
          | Serve_transient -> raise (Transient { point = p; detail })
          | _ -> raise (Fault { point = p; detail })
        end
