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

(* The deadline is enforced to within this many steps; a clock read on
   every step would dominate the interpreter loop. *)
let clock_interval = 4096

(* Wall deadlines measure against the monotonic clock: an NTP step
   forward must not expire every in-flight budget at once, and a step
   backward must not let a divergent program outlive its deadline. *)
let now = Tc_support.Mono.now_s

type account = {
  lim : t;
  mutable steps_left : int;       (* -1 = unlimited; settled steps only *)
  mutable spent : int;            (* settled steps *)
  alloc_lim : int;                (* max_int = unlimited *)
  mutable depth : int;
  frame_lim : int;                (* max_int = unlimited *)
  deadline_at : float;            (* absolute seconds; infinity = none *)
  mutable clock_in : int;         (* settled steps until the next clock check *)
  mutable granted : int;          (* the unsettled batch [fuel] counts down *)
}

type meter = { mutable fuel : int; acct : account }

let meter (lim : t) : meter =
  {
    fuel = 0;
    acct =
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
        granted = 0;
      };
  }

let steps_spent m = m.acct.spent + m.acct.granted - m.fuel

(* Any size is exact, since a batch never crosses the step limit or a
   clock read; this one makes [refill] one call per thousand steps. *)
let batch_size = 1024

(* Wall-clock exhaustion reports the milliseconds elapsed since the
   meter started, not the steps taken. *)
let check_clock a =
  a.clock_in <- clock_interval;
  let t = now () in
  if t > a.deadline_at then
    let started = a.deadline_at -. (a.lim.wall_ms /. 1000.) in
    exhausted Wall_clock
      ~spent:(int_of_float ((t -. started) *. 1000.))
      ~limit:(int_of_float a.lim.wall_ms)

(* One step, charged exactly: the unbatched meter. *)
let step_exactly a =
  a.spent <- a.spent + 1;
  (if a.steps_left >= 0 then
     if a.steps_left = 0 then
       exhausted Steps ~spent:a.spent ~limit:a.lim.steps
     else a.steps_left <- a.steps_left - 1);
  if a.deadline_at < infinity then begin
    a.clock_in <- a.clock_in - 1;
    if a.clock_in <= 0 then check_clock a
  end

let check_allocs m n =
  if n > m.acct.alloc_lim then
    exhausted Allocations ~spent:n ~limit:m.acct.lim.allocations

(* The batch that [fuel] counted down is spent: charge it as that many
   exact steps, none of which could raise or read the clock. *)
let settle m =
  let a = m.acct in
  let used = a.granted - m.fuel in
  a.spent <- a.spent + used;
  if a.steps_left >= 0 then a.steps_left <- a.steps_left - used;
  if a.deadline_at < infinity then a.clock_in <- a.clock_in - used;
  a.granted <- m.fuel

(* The most steps from here on that can neither raise nor need the clock:
   the step limit stays unreached and [clock_in] stays above 0. *)
let grant a =
  let g =
    if a.steps_left >= 0 then min batch_size a.steps_left else batch_size
  in
  if a.deadline_at < infinity then min g (a.clock_in - 1) else g

let refill m ~allocs =
  settle m;
  let a = m.acct in
  step_exactly a;
  check_allocs m allocs;
  let g = grant a in
  a.granted <- g;
  m.fuel <- g

let step m ~allocs =
  if m.fuel > 0 then m.fuel <- m.fuel - 1 else refill m ~allocs

(* Past the cap, the next step must check it: end the batch here. *)
let allocated m n =
  if n > m.acct.alloc_lim then begin
    settle m;
    m.acct.granted <- 0;
    m.fuel <- 0
  end

let enter_frame m =
  let a = m.acct in
  a.depth <- a.depth + 1;
  if a.depth > a.frame_lim then
    exhausted Frames ~spent:a.depth ~limit:a.lim.frames

let exit_frame m = m.acct.depth <- m.acct.depth - 1

let check_output m bytes =
  let lim = m.acct.lim in
  if lim.output_bytes > 0 && bytes > lim.output_bytes then
    exhausted Output ~spent:bytes ~limit:lim.output_bytes
