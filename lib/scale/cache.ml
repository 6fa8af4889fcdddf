(** Content-addressed compile cache (see the interface for semantics).

    Layout: one table, one mutex, one LRU. The mutex guards the entry
    table, the LRU order, the byte total and the telemetry registry, so the whole byte budget applies to the
    whole table and eviction always takes the globally least recently
    used entry. The LRU is an ordered map from tick to key, each entry
    queued at a tick no later than its last touch. A hit only bumps the
    entry's tick, so it does no map work and allocates nothing under
    the lock. Eviction takes the minimum binding: an entry touched since
    it was queued is requeued at its last touch, and the first minimum
    that is current is the globally least recently used entry. Each
    requeue pays for one earlier touch, so eviction is amortized
    O(log n), with no scan.

    Compiles, sizing and disk IO always run {e outside} the lock — a
    slow compile must not stall other workers' hits — so two workers
    racing on the same missing key may both compile; the second insert
    is dropped (first-writer-wins) and only one copy is retained. *)

module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Metrics = Tc_obs.Metrics
module Ident = Tc_support.Ident
module Core = Tc_core_ir.Core
module Ticks = Map.Make (Int)

type value =
  | Artifact of Pipeline.compiled   (* run path: post-optimization *)
  | Checked of Serve.check_answer   (* check path: plain data *)

type entry = {
  e_value : value;
  e_bytes : int;          (* estimated size of its own part, at insert *)
  mutable e_tick : int;   (* LRU clock value of the last touch *)
  mutable e_queued : int; (* its key in the LRU: [e_tick] when last queued *)
  mutable e_hits : int;   (* per-entry, drives sampled verification *)
}

type t = {
  lock : Mutex.t;  (* guards the table, the LRU, the bytes, [reg] *)
  table : (string, entry) Hashtbl.t;
  mutable lru : string Ticks.t;  (* queued tick -> key *)
  mutable tick : int;
  mutable total_bytes : int;  (* the entries' own parts *)
  max_bytes : int;  (* total byte budget; 0 = the memory tier holds nothing *)
  verify_every : int;
  reg : Metrics.t;
  persist : Persist.t option;  (* the [--cache-dir] disk tier *)
}

(* Caller holds the lock: the cache is shared across workers, and the
   registry takes one writer at a time. *)
let bump t name = Metrics.incr (Metrics.counter t.reg ("scale/cache/" ^ name))

(* For the paths that run outside the lock (disk IO, verification). *)
let count t name = Mutex.protect t.lock (fun () -> bump t name)

let set_occupancy t =
  Metrics.set
    (Metrics.gauge t.reg "scale/cache/entries")
    (Hashtbl.length t.table);
  Metrics.set (Metrics.gauge t.reg "scale/cache/bytes") t.total_bytes

let create ?(max_bytes = 64 * 1024 * 1024) ?(verify_every = 0) ?dir () =
  let persist, report =
    match dir with
    | None -> (None, None)
    | Some dir ->
        let p, r = Persist.open_dir ~dir in
        (Some p, Some r)
  in
  let t =
    {
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      lru = Ticks.empty;
      tick = 0;
      total_bytes = 0;
      max_bytes = max 0 max_bytes;
      verify_every;
      reg = Metrics.create ();
      persist;
    }
  in
  (* not yet shared: no lock needed; a zero budget never inserts, so the
     gauges are set here *)
  set_occupancy t;
  Option.iter
    (fun (r : Persist.init_report) ->
      if not r.exclusive then bump t "persist/locked_out";
      if r.wiped then bump t "persist/wiped")
    report;
  t

let metrics t = t.reg

let metrics_view t = Metrics.fold [ t.reg ]

let close t =
  match t.persist with None -> () | Some p -> Persist.close p

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let bytes t = Mutex.protect t.lock (fun () -> t.total_bytes)

(* ---- key derivation ---- *)

(* Canonical rendering of exactly the inputs the artifact depends on.
   [trace]/[metrics] are observation sinks, not inputs, and are excluded;
   [max_errors] only affects the accumulating path. The run path stores
   post-optimization artifacts, so everything that steers the optimizer —
   the pass list and the specializer options (profile digest, threshold,
   budgets, via [Pipeline.spec_signature]) — is part of the key. *)
let key kind ~(opts : Pipeline.options) ~src =
  let opt_fields =
    Printf.sprintf "strategy=%s;lits=%b;defaulting=%b;prelude=%b"
      (Pipeline.strategy_name opts.Pipeline.strategy)
      opts.Pipeline.overloaded_literals opts.Pipeline.defaulting
      opts.Pipeline.include_prelude
  in
  let head =
    match kind with
    | `Run passes ->
        Printf.sprintf "run:%s;passes=%s;spec=%s" opt_fields
          (String.concat "," (List.map Tc_opt.Opt.pass_name passes))
          (Pipeline.spec_signature opts)
    | `Check ->
        Printf.sprintf "check:%s;max_errors=%d" opt_fields
          opts.Pipeline.max_errors
  in
  Digest.to_hex (Digest.string (head ^ "\x00" ^ src))

(* ---- sink stripping / splicing ---- *)

(* Stored artifacts must not retain the inserting request's trace sink or
   metrics registry (the registry alone would drag a server's whole
   instrument table into every size estimate), and a hit must report
   downstream phases (exec spans) to the *caller's* sinks, not the
   inserter's. So the run path stores [with_sinks no_sinks c] and
   returns [with_sinks opts c]. Check answers are plain data. *)
let with_sinks (o : Pipeline.options) (c : Pipeline.compiled) =
  {
    c with
    Pipeline.options =
      {
        c.Pipeline.options with
        Pipeline.metrics = o.Pipeline.metrics;
        trace = o.Pipeline.trace;
      };
  }

(* every sink off *)
let no_sinks = Pipeline.default_options

(* ---- the disk tier ---- *)

(* Marshaled values must be closure-free. A stored artifact's options
   carry no sinks, and [Pipeline] clears its type environment's trace
   sink once checking is over; [Diagnostic.Sink], [Stats.t] and
   everything else reachable is plain data. Marshaling WITHOUT [Closures]
   is the safety net: a closure sneaking into the artifact raises here
   and the entry simply isn't persisted, rather than producing bytes no
   other process could trust. *)
(* Disk IO runs outside the cache lock (like compiles); only the counter
   bumps take it. *)
let persist_read t k : value option =
  match t.persist with
  | None -> None
  | Some p -> (
      match Persist.read p ~key:k with
      | `Miss ->
          count t "persist/misses";
          None
      | `Corrupt ->
          (* torn/corrupt bytes: already unlinked (self-healed); the
             caller recompiles and rewrites *)
          count t "persist/corrupt";
          None
      | `Hit payload -> (
          match (Marshal.from_string payload 0 : value) with
          | v ->
              count t "persist/hits";
              Some v
          | exception _ ->
              (* checksummed but unreadable (should be impossible given
                 the executable digest in the header; never crash on bad
                 bytes regardless) *)
              Persist.remove p ~key:k;
              count t "persist/corrupt";
              None))

let persist_write t k (v : value) =
  match t.persist with
  | None -> ()
  | Some p -> (
      match Marshal.to_string v [] with
      | payload -> (
          match Persist.write p ~key:k ~payload with
          | `Written | `Torn ->
              (* a [`Torn] write (injected crash-mid-write) still counts:
                 the next read detects and heals it *)
              count t "persist/writes"
          | `Skipped -> count t "persist/errors")
      | exception _ -> count t "persist/errors")

let persist_remove t k =
  match t.persist with None -> () | Some p -> Persist.remove p ~key:k

(* ---- fingerprints (verification mode) ---- *)

(* Two compiles of the same source are not structurally equal — type
   variable and dispatch-site ids are process-wide — so verification
   compares a digest of what the user can observe instead. *)
let fingerprint (c : Pipeline.compiled) : string =
  let schemes =
    List.map
      (fun (n, s) -> Ident.text n ^ " :: " ^ Tc_types.Scheme.to_string s)
      c.Pipeline.user_schemes
    |> List.sort compare
  in
  let binds =
    List.fold_left
      (fun acc g ->
        acc
        + match g with Core.Nonrec _ -> 1 | Core.Rec bs -> List.length bs)
      0 c.Pipeline.core.Core.p_binds
  in
  Printf.sprintf "%s|groups=%d|binds=%d|warnings=%d"
    (String.concat ";" schemes)
    (List.length c.Pipeline.core.Core.p_binds)
    binds
    (List.length c.Pipeline.warnings)

(* A check answer is compared as it is: its diagnostics and rendered
   schemes are exactly what the response shows. *)
let agrees a b =
  match (a, b) with
  | Artifact x, Artifact y -> String.equal (fingerprint x) (fingerprint y)
  | Checked x, Checked y -> x = y
  | _ -> false

(* ---- the table ---- *)

(* An entry's own size in bytes: what evicting it can free. A run
   artifact's shared prelude snapshot is the process's, held for its
   whole life, so no entry is charged for it. *)
let size_of (v : value) : int =
  let words =
    match v with
    | Artifact c -> Pipeline.own_words c
    | Checked _ -> Obj.reachable_words (Obj.repr v)
  in
  words * (Sys.word_size / 8)

(* Unlink [k]'s entry [e] from the table, the LRU and the byte total.
   Caller holds the lock. *)
let remove t k e =
  Hashtbl.remove t.table k;
  t.lru <- Ticks.remove e.e_queued t.lru;
  t.total_bytes <- t.total_bytes - e.e_bytes

(* Evict least-recently-used entries until the byte budget holds. Caller
   holds the lock. *)
let evict_over_budget t =
  while t.total_bytes > t.max_bytes && not (Ticks.is_empty t.lru) do
    let q, k = Ticks.min_binding t.lru in
    let e = Hashtbl.find t.table k in
    if e.e_tick > q then begin
      (* touched since it was queued: requeue it at its last touch *)
      t.lru <- Ticks.add e.e_tick k (Ticks.remove q t.lru);
      e.e_queued <- e.e_tick
    end
    else begin
      remove t k e;
      bump t "evictions"
    end
  done

(* A hit touches the entry: returns its value plus whether this touch is
   a verification sample. *)
let lookup t k =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table k with
  | None ->
      bump t "misses";
      None
  | Some e ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      e.e_hits <- e.e_hits + 1;
      bump t "hits";
      let verify = t.verify_every > 0 && e.e_hits mod t.verify_every = 0 in
      Some (e.e_value, verify)

(* Insert after an out-of-lock compile. First-writer-wins: if a racing
   worker inserted the same key meanwhile, keep theirs. *)
let insert t k v =
  let sz = size_of v in
  Mutex.protect t.lock @@ fun () ->
  if not (Hashtbl.mem t.table k) then begin
    t.tick <- t.tick + 1;
    Hashtbl.add t.table k
      {
        e_value = v;
        e_bytes = sz;
        e_tick = t.tick;
        e_queued = t.tick;
        e_hits = 0;
      };
    t.lru <- Ticks.add t.tick k t.lru;
    t.total_bytes <- t.total_bytes + sz;
    bump t "inserts";
    evict_over_budget t
  end;
  set_occupancy t

let drop t k =
  Mutex.protect t.lock @@ fun () ->
  Option.iter (remove t k) (Hashtbl.find_opt t.table k);
  set_occupancy t

(* The common shape of both paths: [compile ()] must produce the same
   [value] constructor the key's entries hold, ready to store. *)
let memo t ~k ~(compile : unit -> value) : value =
  (* a zero budget would size and link every value only to evict it *)
  let keep v = if t.max_bytes > 0 then insert t k v in
  match lookup t k with
  | None -> (
      (* memory miss: consult the disk tier before paying for a compile.
         A disk hit warms the memory table — subsequent hits never touch
         disk again — and skips the front end entirely (no compile
         span). *)
      match persist_read t k with
      | Some v ->
          keep v;
          v
      | None ->
          let v = compile () in
          keep v;
          persist_write t k v;
          v)
  | Some (v, verify) ->
      if not verify then v
      else begin
        (* Sampled verification: recompile and compare. On mismatch the
           cache self-heals — drop the stale entry (both tiers), answer
           with (and re-cache) the fresh compile. *)
        let fresh = compile () in
        if agrees fresh v then begin
          count t "verified";
          v
        end
        else begin
          count t "verify_fail";
          drop t k;
          persist_remove t k;
          insert t k fresh;
          persist_write t k fresh;
          fresh
        end
      end

let compile_run t ~(opts : Pipeline.options) ~passes ~src =
  let k = key (`Run passes) ~opts ~src in
  let compile () =
    let c = Pipeline.compile ~opts ~file:"<serve>" src in
    Artifact (with_sinks no_sinks (Pipeline.optimize passes c))
  in
  match memo t ~k ~compile with
  | Artifact c -> with_sinks opts c
  | Checked _ -> assert false (* run keys only ever hold [Artifact] *)

let check t ~(opts : Pipeline.options) ~src =
  let k = key `Check ~opts ~src in
  let compile () =
    Checked
      (Serve.check_answer_of
         (Pipeline.compile_collect ~opts ~file:"<serve>" src))
  in
  match memo t ~k ~compile with
  | Checked a -> a
  | Artifact _ -> assert false
