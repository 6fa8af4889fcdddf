(** Unified resource budgets for program execution.

    One {!t} record bounds everything a runaway program can consume —
    evaluation steps, call depth, wall-clock time, value allocations and
    rendered-output size — and every limit is reported the same way on
    both back ends: the classified {!Exhausted} exception, carrying which
    resource ran out, how much was spent and what the limit was. Callers
    never see a bare "out of fuel" exception again.

    Units are per backend and documented here once:
    - [steps]: tree backend — {e expression evaluations} (one per
      [Eval.eval] entry); VM backend — {e instructions retired}. The VM
      executes several instructions per tree step, so a program needs a
      larger VM step budget (roughly 10x) for the same work.
    - [frames]: tree backend — {e recursion depth} of the evaluator
      (guarding the native stack); VM backend — {e frame-stack depth}
      (the VM is fully iterative, so this guards its explicit stack).
      The VM always applies a frame bound (default [1_000_000]) even
      under an unlimited budget, because an unbounded explicit stack
      would otherwise consume all memory before anything failed.
    - [wall_ms]: wall-clock milliseconds from {!meter} creation, checked
      every {!clock_interval} steps on both back ends; exhaustion
      reports the milliseconds elapsed, in the same unit as the limit.
    - [allocations]: heap value allocations (same accounting as the
      [allocations] counter).
    - [output_bytes]: size of the rendered result (checked when the
      final value is rendered).

    A limit [<= 0] means unlimited (except the VM frame default above). *)

type resource = Steps | Frames | Wall_clock | Allocations | Output

val resource_name : resource -> string
(** ["steps"], ["frames"], ["wall-clock"], ["allocations"], ["output"]. *)

type t = {
  steps : int;         (** eval steps (tree) / instructions (VM) *)
  frames : int;        (** recursion depth (tree) / frame stack (VM) *)
  wall_ms : float;     (** wall-clock deadline in milliseconds *)
  allocations : int;   (** heap value allocations *)
  output_bytes : int;  (** rendered result size *)
}

val unlimited : t

(** [fuel n] is {!unlimited} with a step budget of [n]. *)
val fuel : int -> t

(** [deadline ms] is {!unlimited} with a wall-clock deadline of [ms]. *)
val deadline : float -> t

exception Exhausted of { resource : resource; spent : int; limit : int }

(** Raise {!Exhausted}. *)
val exhausted : resource -> spent:int -> limit:int -> 'a

(** The classified one-line rendering used by diagnostics and the CLI:
    ["resource exhausted: <resource> (spent N, limit M)"]. *)
val message : resource -> spent:int -> limit:int -> string

(** How many steps pass between wall-clock checks (the deadline is
    enforced to within this many steps). *)
val clock_interval : int

(** Enforcement state for one run, beyond the batch counter below. *)
type account

(** Mutable enforcement state for one run. Creating a meter starts the
    wall clock.

    {b Batched steps.} A back end charges a step on its hot path with
    {[
      if m.fuel > 0 then m.fuel <- m.fuel - 1
      else Budget.refill m ~allocs
    ]}
    (which is what {!step} does). [fuel] counts down a batch of steps the
    meter has already proved safe: none of them can exhaust the step
    limit, and none of them is due a wall-clock read, so taking one costs
    a decrement and a branch. When the batch runs out, {!refill} settles
    it into the account, takes the next step exactly as an unbatched
    meter would (raising on step or wall-clock exhaustion, reading the
    clock every {!clock_interval} steps, then checking [allocs] against
    the allocation cap) and grants the next batch: at most
    {!batch_size} steps, fewer when the step limit or the next clock
    read is closer. The allocation count can only pass the cap where the
    back end counts an allocation, and it reports each one with
    {!allocated}, which ends the batch once the cap is passed, so the
    next step checks it. Every exhaustion therefore happens at the same
    step, with the same [spent], as without batching.

    Only the back end running the meter writes [fuel]. {!steps_spent}
    counts the steps taken from the current batch too, so it is exact at
    any time. *)
type meter = { mutable fuel : int; acct : account }

val meter : t -> meter

(** Steps taken so far, including those taken from the current batch. *)
val steps_spent : meter -> int

(** The most steps one batch grants. *)
val batch_size : int

(** Settle the spent batch, take one step exactly (see {!meter}) and grant
    the next batch into [fuel]. [allocs] is the back end's [allocations]
    counter, checked against the allocation cap after the step. Call it
    only when [fuel] is [0]. *)
val refill : meter -> allocs:int -> unit

(** Charge one step: the function form of the hot-path test shown at
    {!meter}. *)
val step : meter -> allocs:int -> unit

(** [allocated m n]: the back end's [allocations] counter has just
    become [n]. Past the allocation cap, this ends the current batch, so
    the next step checks the cap (and raises). *)
val allocated : meter -> int -> unit

(** Enter/leave one recursion level (tree backend). [exit_frame] need not
    be called on exceptional exits; the meter is discarded with the run. *)
val enter_frame : meter -> unit

val exit_frame : meter -> unit

(** [check_output m bytes] raises when [bytes] exceeds the output cap. *)
val check_output : meter -> int -> unit
