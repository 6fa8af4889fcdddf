(** Unified resource budgets. See the interface for the budget model and
    the per-backend unit of each limit. *)

type resource = Steps | Frames | Wall_clock | Allocations | Output

let resource_name = function
  | Steps -> "steps"
  | Frames -> "frames"
  | Wall_clock -> "wall-clock"
  | Allocations -> "allocations"
  | Output -> "output"

type t = {
  steps : int;
  frames : int;
  wall_ms : float;
  allocations : int;
  output_bytes : int;
}

let unlimited =
  { steps = 0; frames = 0; wall_ms = 0.; allocations = 0; output_bytes = 0 }

let fuel n = { unlimited with steps = n }
let deadline ms = { unlimited with wall_ms = ms }

exception Exhausted of { resource : resource; spent : int; limit : int }

let exhausted resource ~spent ~limit = raise (Exhausted { resource; spent; limit })

let message resource ~spent ~limit =
  if limit <= 0 then
    (* no configured limit: the host ran out (native stack, real OOM) *)
    Printf.sprintf "resource exhausted: %s" (resource_name resource)
  else
    Printf.sprintf "resource exhausted: %s (spent %d, limit %d%s)"
      (resource_name resource) spent limit
      (match resource with Wall_clock -> " ms" | _ -> "")

let message_of_exn = function
  | Exhausted { resource; spent; limit } -> Some (message resource ~spent ~limit)
  | _ -> None

(* The deadline is enforced to within this many steps; a clock read on
   every step would dominate the interpreter loop. *)
let clock_interval = 4096

(* Wall deadlines measure against the monotonic clock: an NTP step
   forward must not expire every in-flight budget at once, and a step
   backward must not let a divergent program outlive its deadline. *)
let now = Tc_support.Mono.now_s

type meter = {
  lim : t;
  mutable steps_left : int;       (* -1 = unlimited *)
  mutable spent : int;
  alloc_lim : int;                (* max_int = unlimited *)
  mutable depth : int;
  frame_lim : int;                (* max_int = unlimited *)
  deadline_at : float;            (* absolute seconds; infinity = none *)
  mutable clock_in : int;         (* steps until the next clock check *)
}

let meter (lim : t) : meter =
  {
    lim;
    steps_left = (if lim.steps > 0 then lim.steps else -1);
    spent = 0;
    alloc_lim = (if lim.allocations > 0 then lim.allocations else max_int);
    depth = 0;
    frame_lim = (if lim.frames > 0 then lim.frames else max_int);
    deadline_at =
      (if lim.wall_ms > 0. then now () +. (lim.wall_ms /. 1000.)
       else infinity);
    clock_in = clock_interval;
  }

let limits m = m.lim
let steps_spent m = m.spent

(* Wall-clock exhaustion reports the milliseconds elapsed since the
   meter started, not the steps taken. *)
let check_clock m =
  m.clock_in <- clock_interval;
  let t = now () in
  if t > m.deadline_at then
    let started = m.deadline_at -. (m.lim.wall_ms /. 1000.) in
    exhausted Wall_clock
      ~spent:(int_of_float ((t -. started) *. 1000.))
      ~limit:(int_of_float m.lim.wall_ms)

let step m =
  m.spent <- m.spent + 1;
  (if m.steps_left >= 0 then
     if m.steps_left = 0 then
       exhausted Steps ~spent:m.spent ~limit:m.lim.steps
     else m.steps_left <- m.steps_left - 1);
  if m.deadline_at < infinity then begin
    m.clock_in <- m.clock_in - 1;
    if m.clock_in <= 0 then check_clock m
  end

let check_allocs m n =
  if n > m.alloc_lim then
    exhausted Allocations ~spent:n ~limit:m.lim.allocations

let enter_frame m =
  m.depth <- m.depth + 1;
  if m.depth > m.frame_lim then
    exhausted Frames ~spent:m.depth ~limit:m.lim.frames

let exit_frame m = m.depth <- m.depth - 1

let frame_limit m = m.frame_lim

let check_frames m depth =
  if depth > m.frame_lim then exhausted Frames ~spent:depth ~limit:m.lim.frames

let check_output m bytes =
  if m.lim.output_bytes > 0 && bytes > m.lim.output_bytes then
    exhausted Output ~spent:bytes ~limit:m.lim.output_bytes
