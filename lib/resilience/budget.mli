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

(** Render a caught {!Exhausted} payload (convenience for handlers that
    matched the exception). *)
val message_of_exn : exn -> string option

(** How many steps pass between wall-clock checks (the deadline is
    enforced to within this many steps). *)
val clock_interval : int

(** Mutable enforcement state for one run. Creating a meter starts the
    wall clock. *)
type meter

val meter : t -> meter

val limits : meter -> t

(** Steps consumed so far. *)
val steps_spent : meter -> int

(** Charge one step; raises {!Exhausted} on step or wall-clock
    exhaustion. The hot-path entry point: one decrement and compare when
    no deadline is set. *)
val step : meter -> unit

(** [check_allocs m n] raises when the allocation count [n] (the back
    end's [allocations] counter) exceeds the cap. *)
val check_allocs : meter -> int -> unit

(** Enter/leave one recursion level (tree backend). [exit_frame] need not
    be called on exceptional exits; the meter is discarded with the run. *)
val enter_frame : meter -> unit

val exit_frame : meter -> unit

(** The frame bound as a plain limit, for back ends that already track
    their own depth (the VM frame stack): [max_int] when unlimited. *)
val frame_limit : meter -> int

(** [check_frames m depth] raises when [depth] exceeds the frame bound. *)
val check_frames : meter -> int -> unit

(** [check_output m bytes] raises when [bytes] exceeds the output cap. *)
val check_output : meter -> int -> unit
