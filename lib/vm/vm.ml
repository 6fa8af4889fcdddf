(** A stack-based interpreter for {!Bytecode}.

    The machine is fully iterative: calls, tail calls and thunk updates
    are explicit frames on a growable frame stack, so deep non-tail
    recursion is reported as a clean budget exhaustion (the [max_frames]
    bound) instead of a native stack overflow, and the step budget is
    honoured per instruction.

    An instruction's fixed cost is kept small: the step budget is charged
    through {!Budget}'s batch counter (one decrement and one branch; the
    meter owns the step count, which {!counters} settles), a call
    allocates a fresh frame record (see [frame]), [SWITCH] indexes a table
    by constructor tag, and [IFELSE] compares the tag with [True]'s.

    Laziness lives in slots: a slot is a mutable cell holding either a
    value, a delayed closure (thunk) or a black hole. Forcing pushes an
    update frame; when it returns, the result is written back into the
    cell (call-by-need sharing, as in the tree evaluator's [Todo]/[Done]
    cells).

    Dictionaries are contiguous slot arrays: [MKDICT n] is one allocation,
    [DICTSEL i] one bounds-checked indexed load. All dictionary operations
    bump the same {!Tc_eval.Counters} the tree evaluator maintains.

    The primitives, the renderer and the string conversions are not the
    VM's own: it instantiates {!Tc_eval.Runtime.Make}, as the tree
    evaluator does, and raises {!Tc_eval.Runtime}'s exceptions. *)

open Tc_support
module Ast = Tc_syntax.Ast
module Core = Tc_core_ir.Core
module Eval = Tc_eval.Eval
module Runtime = Tc_eval.Runtime
module Counters = Tc_eval.Counters
module Budget = Tc_resilience.Budget
module Inject = Tc_resilience.Inject
module B = Bytecode

let runtime = Runtime.runtime
let bug = Runtime.bug

type value =
  | VInt of int
  | VFloat of float
  | VChar of char
  | VStr of string                        (* internal message strings *)
  | VData of Eval.rcon * slot array
  | VConPartial of Eval.rcon * slot list  (* unsaturated ctor, args reversed *)
  | VClosure of closure
  | VPap of closure * slot list           (* partial application, in order *)
  | VDict of Core.dict_tag * slot array
  | VPrim of prim * slot list             (* partial primitive, in order *)

and closure = { c_proto : B.proto; c_env : slot array }

and slot = { mutable cell : cell }

and cell =
  | Ready of value
  | Delay of closure
  | Busy  (* black hole *)

and prim = {
  pr_name : string;
  pr_arity : int;
  pr_fn : state -> slot list -> value;
}

(* Each call allocates its frame. The young record is initialised
   without write barriers and only its [f_pc] (an immediate) changes
   afterwards; storing it into the frame stack is the call's one
   barriered write. A pool of reused records would be promoted by the
   first minor collection and then pay the barrier on every field. *)
and frame = {
  f_code : B.instr array;
  mutable f_pc : int;
  f_locals : slot array;
  f_env : slot array;
  f_base : int;           (* operand-stack watermark to restore on return *)
  f_update : slot option; (* thunk cell to update instead of pushing *)
}

and state = {
  cons : Eval.con_table;
  counters : Counters.t;
  profile : Tc_obs.Profile.rt option;  (* per-site dispatch counts *)
  budget : Budget.meter;    (* steps = instructions on this backend *)
  max_frames : int;         (* frame-stack bound; see [create_state] *)
  mutable protos : B.proto array;
  mutable consts : slot array;
  mutable globals : slot array;
  bools : (value * value) option;  (* True/False, built once per state *)
  true_tag : int;           (* IFELSE branches on these; see Runtime *)
  false_tag : int;
  (* operand stack *)
  mutable stack : slot array;
  mutable sp : int;
  (* frame stack *)
  mutable frames : frame array;
  mutable fp : int;
}

(* The meter owns the step count; settle it into the counters here. *)
let counters (st : state) : Counters.t =
  st.counters.Counters.steps <- Budget.steps_spent st.budget;
  st.counters

let meter (st : state) : Budget.meter = st.budget

(* Every allocation is counted here, so that passing the allocation cap
   ends the step batch (see {!Budget.meter}). *)
let count_alloc (st : state) : unit =
  let c = st.counters in
  c.Counters.allocations <- c.Counters.allocations + 1;
  Budget.allocated st.budget c.Counters.allocations

let ready v = { cell = Ready v }

let dummy_slot = { cell = Busy }

(* Filler for unused frame-stack entries. *)
let dummy_frame =
  { f_code = [||]; f_pc = 0; f_locals = [||]; f_env = [||]; f_base = 0;
    f_update = None }

(* ------------------------------------------------------------------ *)
(* Stacks.                                                             *)
(* ------------------------------------------------------------------ *)

let push (st : state) (s : slot) : unit =
  if st.sp = Array.length st.stack then begin
    let a = Array.make (2 * st.sp) dummy_slot in
    Array.blit st.stack 0 a 0 st.sp;
    st.stack <- a
  end;
  st.stack.(st.sp) <- s;
  st.sp <- st.sp + 1

let pop (st : state) : slot =
  st.sp <- st.sp - 1;
  st.stack.(st.sp)

(* Closure environments and frame locals of up to a few slots are built
   as array literals: a literal's initialising stores need neither the
   write barrier nor a C call, and [Array.make] and [Array.blit] are both
   C calls. *)
let captured (fr : frame) (c : B.capture) : slot =
  match c with
  | B.Cap_local j -> fr.f_locals.(j)
  | B.Cap_env j -> fr.f_env.(j)

let make_closure (fr : frame) (proto : B.proto) : closure =
  let caps = proto.B.p_captures in
  let env =
    match Array.length caps with
    | 0 -> [||]
    | 1 -> [| captured fr caps.(0) |]
    | 2 -> [| captured fr caps.(0); captured fr caps.(1) |]
    | 3 ->
        [| captured fr caps.(0); captured fr caps.(1);
           captured fr caps.(2) |]
    | n ->
        let env = Array.make n dummy_slot in
        for i = 0 to n - 1 do
          env.(i) <- captured fr caps.(i)
        done;
        env
  in
  { c_proto = proto; c_env = env }

(* A proto with no locals never reads or writes a slot, so all its frames
   can share one array. *)
let no_locals = [| dummy_slot |]

let make_locals (proto : B.proto) : slot array =
  let d = dummy_slot in
  match proto.B.p_nlocals with
  | 0 -> no_locals
  | 1 -> [| d |]
  | 2 -> [| d; d |]
  | 3 -> [| d; d; d |]
  | 4 -> [| d; d; d; d |]
  | n -> Array.make n d

(* The locals of a saturated call to [proto], its [n] arguments copied
   from the top of the operand stack ([n] = arity >= 1). *)
let stack_args (st : state) (proto : B.proto) (n : int) : slot array =
  let s = st.stack and b = st.sp - n in
  let d = dummy_slot in
  match proto.B.p_nlocals with
  | 1 -> [| s.(b) |]
  | 2 -> [| s.(b); (if n > 1 then s.(b + 1) else d) |]
  | 3 ->
      [| s.(b); (if n > 1 then s.(b + 1) else d);
         (if n > 2 then s.(b + 2) else d) |]
  | 4 ->
      [| s.(b); (if n > 1 then s.(b + 1) else d);
         (if n > 2 then s.(b + 2) else d); (if n > 3 then s.(b + 3) else d) |]
  | m ->
      let l = Array.make m d in
      Array.blit s b l 0 n;
      l

let push_frame (st : state) (proto : B.proto) ~(env : slot array)
    ~(locals : slot array) ~(update : slot option) : unit =
  if st.fp >= st.max_frames then
    Budget.exhausted Budget.Frames ~spent:st.fp ~limit:st.max_frames;
  if st.fp = Array.length st.frames then begin
    let a = Array.make (2 * st.fp) dummy_frame in
    Array.blit st.frames 0 a 0 st.fp;
    st.frames <- a
  end;
  st.frames.(st.fp) <-
    { f_code = proto.B.p_code; f_pc = 0; f_locals = locals; f_env = env;
      f_base = st.sp; f_update = update };
  st.fp <- st.fp + 1

(** Begin forcing [s] if it is a thunk (the update frame completes the
    job); no-op when already a value. *)
let start_force (st : state) (s : slot) : unit =
  match s.cell with
  | Ready _ -> ()
  | Busy -> runtime "<<loop>> (value depends on itself)"
  | Delay clo ->
      st.counters.Counters.thunk_forces <-
        st.counters.Counters.thunk_forces + 1;
      s.cell <- Busy;
      push_frame st clo.c_proto ~env:clo.c_env
        ~locals:(make_locals clo.c_proto) ~update:(Some s)

let value_of (s : slot) : value =
  match s.cell with
  | Ready v -> v
  | _ -> bug "expected a forced slot"

(* Synthetic protos for over-application: after an inner call returns a
   function, apply it to the [n] pending arguments held in the frame's
   locals. The table is process-global (protos are immutable and shared
   across every VM state, including states running on other domains in
   the [Tc_scale.Pool] worker pool), so it is guarded by a mutex. *)
let apply_protos : (int, B.proto) Hashtbl.t = Hashtbl.create 8
let apply_protos_lock = Mutex.create ()

let apply_proto (n : int) : B.proto =
  Mutex.lock apply_protos_lock;
  let p =
    match Hashtbl.find_opt apply_protos n with
    | Some p -> p
    | None ->
        let p =
          {
            B.p_name = Printf.sprintf "<apply/%d>" n;
            p_arity = n;
            p_nlocals = n;
            p_captures = [||];
            p_code = [| B.APPLY_LOCALS n |];
          }
        in
        Hashtbl.replace apply_protos n p;
        p
  in
  Mutex.unlock apply_protos_lock;
  p

(* ------------------------------------------------------------------ *)
(* The interpreter loop.                                               *)
(* ------------------------------------------------------------------ *)

let lit_matches (l : Ast.lit) (v : value) : bool =
  match (l, v) with
  | Ast.LInt a, VInt b -> a = b
  | Ast.LFloat a, VFloat b -> a = b
  | Ast.LChar a, VChar b -> a = b
  | Ast.LString a, VStr b -> a = b  (* tag-dispatch branches on type tags *)
  | _ -> false

(* The target pc of [sw] for the forced scrutinee [v]: [sw_default] when
   no alternative matches. *)
let switch_target (sw : B.switch) (v : value) : int =
  match v with
  | VData (rc, _) ->
      let tag = rc.Eval.rc_tag in
      if tag < Array.length sw.B.sw_tags then sw.B.sw_tags.(tag)
      else sw.B.sw_default
  | VInt _ | VFloat _ | VChar _ | VStr _ ->
      let lits = sw.B.sw_lits in
      let rec go i =
        if i >= Array.length lits then sw.B.sw_default
        else
          let l, pc = lits.(i) in
          if lit_matches l v then pc else go (i + 1)
      in
      go 0
  | _ -> bug "case: scrutinee is not a data value"

let return_value (st : state) (v : value) : unit =
  let fr = st.frames.(st.fp - 1) in
  st.sp <- fr.f_base;
  st.fp <- st.fp - 1;
  match fr.f_update with
  | Some s -> s.cell <- Ready v
  | None -> push st (ready v)

(** Apply [fnv] to [args]; [tail] means the current frame is finished and
    should be replaced (or returned through) rather than grown. *)
let rec do_apply (st : state) ~(tail : bool) (fnv : value) (args : slot list) :
    unit =
  st.counters.Counters.applications <-
    st.counters.Counters.applications + List.length args;
  apply_value st ~tail fnv args

and apply_value (st : state) ~tail (fnv : value) (args : slot list) : unit =
  match fnv with
  | VClosure clo -> apply_closure st ~tail clo args
  | VPap (clo, prev) -> apply_closure st ~tail clo (prev @ args)
  | VConPartial (rc, prev) -> apply_con st ~tail rc prev args
  | VPrim (p, prev) -> apply_prim st ~tail p prev args
  | VInt _ | VFloat _ | VChar _ | VStr _ | VData _ | VDict _ ->
      bug "applied a non-function value"

and apply_closure (st : state) ~tail (clo : closure) (args : slot list) : unit =
  let m = clo.c_proto.B.p_arity in
  let n = List.length args in
  if n < m then begin
    count_alloc st;
    finish st ~tail (VPap (clo, args))
  end
  else begin
    let locals = make_locals clo.c_proto in
    let rec fill i = function
      | [] -> []
      | a :: rest when i < m ->
          locals.(i) <- a;
          fill (i + 1) rest
      | rest -> rest
    in
    let rest = fill 0 args in
    (if tail then begin
       (* the current frame is done: collapse to its watermark and reuse
          its return obligation *)
       let cur = st.frames.(st.fp - 1) in
       st.sp <- cur.f_base;
       st.fp <- st.fp - 1;
       if rest = [] then
         push_frame st clo.c_proto ~env:clo.c_env ~locals
           ~update:cur.f_update
       else begin
         let k = apply_proto (List.length rest) in
         push_frame st k ~env:[||] ~locals:(Array.of_list rest)
           ~update:cur.f_update;
         push_frame st clo.c_proto ~env:clo.c_env ~locals ~update:None
       end
     end
     else begin
       (if rest <> [] then
          let k = apply_proto (List.length rest) in
          push_frame st k ~env:[||] ~locals:(Array.of_list rest) ~update:None);
       push_frame st clo.c_proto ~env:clo.c_env ~locals ~update:None
     end)
  end

and apply_con (st : state) ~tail (rc : Eval.rcon) (prev : slot list)
    (args : slot list) : unit =
  (* accumulate one argument at a time, as the tree evaluator does *)
  let rec go acc = function
    | [] -> finish st ~tail (VConPartial (rc, acc))
    | a :: rest ->
        let acc' = a :: acc in
        if List.length acc' = rc.Eval.rc_arity then begin
          count_alloc st;
          let v = VData (rc, Array.of_list (List.rev acc')) in
          if rest = [] then finish st ~tail v
          else apply_value st ~tail v rest (* errors: data is not a function *)
        end
        else go acc' rest
  in
  go prev args

and apply_prim (st : state) ~tail (p : prim) (prev : slot list)
    (args : slot list) : unit =
  let all = prev @ args in
  let n = List.length all in
  if n < p.pr_arity then finish st ~tail (VPrim (p, all))
  else begin
    let rec split i = function
      | rest when i = 0 -> ([], rest)
      | a :: rest ->
          let used, over = split (i - 1) rest in
          (a :: used, over)
      | [] -> assert false
    in
    let used, over = split p.pr_arity all in
    st.counters.Counters.prim_calls <- st.counters.Counters.prim_calls + 1;
    let v = p.pr_fn st used in
    if over = [] then finish st ~tail v else apply_value st ~tail v over
  end

and finish (st : state) ~tail (v : value) : unit =
  if tail then return_value st v else push st (ready v)

(** Execute until the frame stack drops back to depth [stop]. *)
and run_loop (st : state) ~(stop : int) : unit =
  while st.fp > stop do
    let fr = st.frames.(st.fp - 1) in
    (* [Budget.step], inlined; the meter owns the step count *)
    let m = st.budget in
    if m.Budget.fuel > 0 then m.Budget.fuel <- m.Budget.fuel - 1
    else Budget.refill m ~allocs:st.counters.Counters.allocations;
    if !Inject.live then Inject.hit Inject.Vm_step;
    let i = fr.f_code.(fr.f_pc) in
    fr.f_pc <- fr.f_pc + 1;
    match i with
    | B.CONST k -> push st st.consts.(k)
    | B.LOCAL i -> push st fr.f_locals.(i)
    | B.LOCALV i ->
        let s = fr.f_locals.(i) in
        push st s;
        start_force st s
    | B.ENV i -> push st fr.f_env.(i)
    | B.ENVV i ->
        let s = fr.f_env.(i) in
        push st s;
        start_force st s
    | B.GLOBAL i -> push st st.globals.(i)
    | B.GLOBALV i ->
        let s = st.globals.(i) in
        push st s;
        start_force st s
    | B.CON rc ->
        if rc.Eval.rc_arity = 0 then begin
          count_alloc st;
          push st (ready (VData (rc, [||])))
        end
        else push st (ready (VConPartial (rc, [])))
    | B.CLOSURE p ->
        count_alloc st;
        push st (ready (VClosure (make_closure fr st.protos.(p))))
    | B.DELAY p -> push st { cell = Delay (make_closure fr st.protos.(p)) }
    | B.STORE i -> fr.f_locals.(i) <- pop st
    | B.REC_ALLOC i -> fr.f_locals.(i) <- { cell = Busy }
    | B.REC_SET (l, p) ->
        fr.f_locals.(l).cell <- Delay (make_closure fr st.protos.(p))
    | B.FORCE_LOCAL i -> start_force st fr.f_locals.(i)
    | B.JUMP pc -> fr.f_pc <- pc
    | B.IFELSE pc_false -> (
        match value_of (pop st) with
        | VData (rc, _) ->
            if rc.Eval.rc_tag = st.true_tag then ()
            else if rc.Eval.rc_tag = st.false_tag then fr.f_pc <- pc_false
            else bug "if: expected a Bool, got constructor '%s'"
                (Ident.text rc.Eval.rc_name)
        | _ -> bug "if: condition is not a Bool")
    | B.SWITCH sw ->
        let s = pop st in
        fr.f_locals.(sw.B.sw_scrut) <- s;
        let pc = switch_target sw (value_of s) in
        if pc >= 0 then fr.f_pc <- pc
        else bug "case: no matching alternative"
    | B.FIELD (l, i) -> (
        match fr.f_locals.(l).cell with
        | Ready (VData (_, fields)) -> push st fields.(i)
        | _ -> bug "FIELD of a non-data value")
    | B.MKDICT (tag, n) ->
        st.counters.Counters.dict_constructions <-
          st.counters.Counters.dict_constructions + 1;
        st.counters.Counters.dict_fields <-
          st.counters.Counters.dict_fields + n;
        count_alloc st;
        (match st.profile with
         | Some p -> Tc_obs.Profile.hit_dict p tag
         | None -> ());
        let fields = Array.make (max n 1) dummy_slot in
        for k = n - 1 downto 0 do
          fields.(k) <- pop st
        done;
        push st (ready (VDict (tag, if n = 0 then [||] else fields)))
    | B.DICTSEL info -> (
        st.counters.Counters.selections <-
          st.counters.Counters.selections + 1;
        (match st.profile with
         | Some p -> Tc_obs.Profile.hit_sel p info
         | None -> ());
        match value_of (pop st) with
        | VDict (_, fields) ->
            if info.Core.sel_index >= Array.length fields then
              bug "dictionary selection out of range (%d of %d)"
                info.Core.sel_index (Array.length fields)
            else begin
              let s = fields.(info.Core.sel_index) in
              push st s;
              start_force st s
            end
        | _ -> bug "selection from a non-dictionary value")
    | B.CALL n -> (
        match (pop st).cell with
        (* fast path: saturated closure call, args copied straight from
           the operand stack into the callee's locals *)
        | Ready (VClosure clo) when clo.c_proto.B.p_arity = n ->
            st.counters.Counters.applications <-
              st.counters.Counters.applications + n;
            let locals = stack_args st clo.c_proto n in
            st.sp <- st.sp - n;
            push_frame st clo.c_proto ~env:clo.c_env ~locals ~update:None
        (* fast path: saturated primitive call *)
        | Ready (VPrim (p, [])) when p.pr_arity = n ->
            st.counters.Counters.applications <-
              st.counters.Counters.applications + n;
            st.counters.Counters.prim_calls <-
              st.counters.Counters.prim_calls + 1;
            let args = ref [] in
            for k = st.sp - 1 downto st.sp - n do
              args := st.stack.(k) :: !args
            done;
            st.sp <- st.sp - n;
            push st (ready (p.pr_fn st !args))
        | cell ->
            let fnv =
              match cell with
              | Ready v -> v
              | _ -> bug "expected a forced slot"
            in
            let args = ref [] in
            for _ = 1 to n do
              args := pop st :: !args
            done;
            do_apply st ~tail:false fnv !args)
    | B.TAILCALL n -> (
        match (pop st).cell with
        | Ready (VClosure clo) when clo.c_proto.B.p_arity = n ->
            st.counters.Counters.applications <-
              st.counters.Counters.applications + n;
            let locals = stack_args st clo.c_proto n in
            let update = fr.f_update in
            st.sp <- fr.f_base;
            st.fp <- st.fp - 1;
            push_frame st clo.c_proto ~env:clo.c_env ~locals ~update
        | Ready (VPrim (p, [])) when p.pr_arity = n ->
            st.counters.Counters.applications <-
              st.counters.Counters.applications + n;
            st.counters.Counters.prim_calls <-
              st.counters.Counters.prim_calls + 1;
            let args = ref [] in
            for k = st.sp - 1 downto st.sp - n do
              args := st.stack.(k) :: !args
            done;
            st.sp <- st.sp - n;
            return_value st (p.pr_fn st !args)
        | cell ->
            let fnv =
              match cell with
              | Ready v -> v
              | _ -> bug "expected a forced slot"
            in
            let args = ref [] in
            for _ = 1 to n do
              args := pop st :: !args
            done;
            do_apply st ~tail:true fnv !args)
    | B.APPLY_LOCALS n ->
        let fnv = value_of (pop st) in
        let args = ref [] in
        for k = n - 1 downto 0 do
          args := fr.f_locals.(k) :: !args
        done;
        apply_value st ~tail:true fnv !args
    | B.RETURN -> (
        let res = pop st in
        st.sp <- fr.f_base;
        st.fp <- st.fp - 1;
        match fr.f_update with
        | Some s -> s.cell <- res.cell
        | None -> push st res)
    | B.FAIL m -> raise (Eval.Runtime_error m)
  done

(** Force a slot to a value, running the machine as needed. Re-entrant:
    primitives use this on their arguments. *)
and force (st : state) (s : slot) : value =
  match s.cell with
  | Ready v -> v
  | _ ->
      let stop = st.fp in
      start_force st s;
      run_loop st ~stop;
      value_of s

(* ------------------------------------------------------------------ *)
(* The shared runtime: primitives, rendering, string conversions.      *)
(* ------------------------------------------------------------------ *)

include Runtime.Make (struct
  type nonrec value = value
  type nonrec thunk = slot
  type nonrec prim = prim
  type nonrec state = state

  let force = force
  let ready = ready
  let int n = VInt n
  let float f = VFloat f
  let char c = VChar c
  let str s = VStr s
  let data rc fields = VData (rc, fields)

  let view : value -> slot Runtime.view = function
    | VInt n -> Int n
    | VFloat f -> Float f
    | VChar c -> Char c
    | VStr s -> Str s
    | VData (rc, fields) -> Data (rc, fields)
    | VDict (tag, fields) -> Dict (tag, Array.length fields)
    | VClosure _ | VPap _ | VConPartial _ | VPrim _ -> Fun

  let int_arg st t =
    match force st t with VInt n -> n | _ -> bug "primitive expected an Int"

  let float_arg st t =
    match force st t with VFloat f -> f | _ -> bug "primitive expected a Float"

  let char_arg st t =
    match force st t with VChar c -> c | _ -> bug "primitive expected a Char"

  let make_prim pr_name pr_arity pr_fn = { pr_name; pr_arity; pr_fn }
  let bools st = st.bools
  let cons st = st.cons
  let counters st = st.counters
end)

(* ------------------------------------------------------------------ *)
(* Whole programs.                                                     *)
(* ------------------------------------------------------------------ *)

let create_state ?(budget = Budget.unlimited) ?profile
    (cons : Eval.con_table) : state =
  let true_tag, false_tag = Runtime.bool_tags cons in
  {
    cons;
    counters = Counters.create ();
    profile;
    budget = Budget.meter budget;
    (* the frame stack is an explicit growable array: even an "unlimited"
       budget keeps a bound on it, or runaway non-tail recursion would
       consume all memory before anything was reported *)
    max_frames = (if budget.Budget.frames > 0 then budget.Budget.frames
                  else 1_000_000);
    protos = [||];
    consts = [||];
    globals = [||];
    bools = bools cons;
    true_tag;
    false_tag;
    stack = Array.make 256 dummy_slot;
    sp = 0;
    frames = Array.make 64 dummy_frame;
    fp = 0;
  }

let value_of_lit (l : Ast.lit) : value =
  match l with
  | Ast.LInt n -> VInt n
  | Ast.LFloat f -> VFloat f
  | Ast.LChar c -> VChar c
  | Ast.LString s -> VStr s

(* The primitives as values, indexed like [Eval.primitives] (which
   [B.Gprim] indexes) and resolved once per process. *)
let prim_values : value array =
  Array.of_list
    (List.map
       (fun (name, _) ->
         match List.find_opt (fun (n, _) -> Ident.equal n name) primitives with
         | Some (_, pr) -> VPrim (pr, [])
         | None -> bug "unknown primitive '%s'" (Ident.text name))
       Eval.primitives)

(** Install a program's constant pool and global table (primitives plus
    delayed CAFs) into the state. *)
let load_program (st : state) (p : B.program) : unit =
  st.protos <- p.B.protos;
  st.consts <- Array.map (fun l -> ready (value_of_lit l)) p.B.consts;
  st.globals <-
    Array.map
      (fun (_, init) ->
        match init with
        | B.Gprim ix -> ready prim_values.(ix)
        | B.Gproto ix ->
            { cell = Delay { c_proto = p.B.protos.(ix); c_env = [||] } })
      p.B.globals

(** Run the requested [entry], or the program's [main]. *)
let run ?entry (st : state) (p : B.program) : value =
  load_program st p;
  let entry =
    match entry with
    | Some e -> e
    | None -> (
        match p.B.entry with Some m -> m | None -> Ident.intern "main")
  in
  match B.find_global p entry with
  | Some g -> force st st.globals.(g)
  | None -> runtime "no '%s' binding to run" (Ident.text entry)
