(** A metrics registry: counters, gauges and log-bucketed histograms.

    The quantitative half of the observability layer ({!Trace} and
    {!Profile} are the qualitative half): named instruments registered in
    one {!t}, snapshotted as deterministic JSON. Design rules, in the
    style of [trace.ml]:

    - {e Allocation-free when disabled.} [disabled] is the default
      everywhere; instrument lookup on a disabled registry returns a
      shared dummy handle, and every bump ([incr]/[add]/[set]/[observe])
      is a plain mutation of preallocated state. No closure, no boxing,
      no hashtable traffic on the disabled path.
    - {e Readable while written.} One writer at a time, readers on any
      domain. The registry's mutex is taken to register a name, while a
      reader folds the registry, and by {!atomically}; a bump through a
      handle stays a plain store. {!join} makes a view: a registry whose
      reads fold in its members', each counted once.
    - {e Deterministic snapshots.} [snapshot] orders counters, gauges and
      histograms by name and spans by first-registration order, and
      carries no timestamps. Under [~stable:true] every
      machine-dependent quantity (durations, allocation totals,
      latency-derived histogram detail) is redacted down to event
      counts, so golden tests can compare snapshots byte-for-byte.
    - {e Log-bucketed histograms.} Values are binned by bit width:
      bucket 0 holds [v <= 0], bucket [i >= 1] holds
      [2^(i-1) <= v < 2^i] (the last bucket is clamped at [max_int]).
      Bucketing is two instructions, merge is elementwise addition, and
      quantiles come from the cumulative counts as the upper bound of
      the quantile's bucket — an overestimate by at most 2x, stable
      across runs that bin identically. *)

(* ------------------------------------------------------------------ *)
(* Instruments.                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : int }

(* 63 buckets cover every OCaml int: bucket 0 for v <= 0, bucket i for
   [2^(i-1), 2^i), bucket 62 (values >= 2^61) clamped at max_int. *)
let bucket_count = 63

type histogram = {
  h_buckets : int array;  (* length [bucket_count] *)
  mutable h_count : int;
  mutable h_sum : int;    (* saturating *)
  mutable h_min : int;    (* [max_int] while empty *)
  mutable h_max : int;    (* [min_int] while empty *)
}

type span_stat = {
  sp_name : string;  (* full path, outermost first: "compile/infer" *)
  sp_seq : int;      (* first-registration order, for stable listing *)
  mutable sp_count : int;
  mutable sp_ns : int;     (* total wall-clock nanoseconds *)
  mutable sp_words : int;  (* total allocated words (minor counter) *)
}

type registry = {
  r_lock : Mutex.t;  (* registration, reads, [atomically] *)
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_probes : (string, unit -> int) Hashtbl.t;  (* gauges computed on read *)
  r_hists : (string, histogram) Hashtbl.t;
  r_spans : (string, span_stat) Hashtbl.t;
  mutable r_members : registry list;  (* folded into every read *)
  mutable r_stack : string list;  (* active span paths, innermost first *)
  mutable r_seq : int;
  r_recorder : Rtrace.t;  (* flight recorder every span also feeds *)
}

type t = registry option

let disabled : t = None

let fresh ?(recorder = Rtrace.disabled) () =
  {
    r_lock = Mutex.create ();
    r_counters = Hashtbl.create 16;
    r_gauges = Hashtbl.create 16;
    r_probes = Hashtbl.create 4;
    r_hists = Hashtbl.create 16;
    r_spans = Hashtbl.create 16;
    r_members = [];
    r_stack = [];
    r_seq = 0;
    r_recorder = recorder;
  }

let create ?recorder () : t = Some (fresh ?recorder ())

let is_on : t -> bool = Option.is_some

let recorder : t -> Rtrace.t = function
  | Some r -> r.r_recorder
  | None -> Rtrace.disabled

(* Shared dummies handed out by a disabled registry: bumping them is
   harmless (they are never snapshotted) and allocates nothing. *)
let null_counter = { c_value = 0 }
let null_gauge = { g_value = 0 }

let fresh_hist () =
  {
    h_buckets = Array.make bucket_count 0;
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = min_int;
  }

let null_hist = fresh_hist ()

(* A name already registered is found without the lock: only its writer
   adds to a table, and readers never change it. A new name is added
   under the lock, so a reader copying the registry never sees a table
   mid-insert. *)
let find_or_add r tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None -> (
      Mutex.protect r.r_lock @@ fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add tbl name v;
          v)

let counter (t : t) name : counter =
  match t with
  | None -> null_counter
  | Some r ->
      find_or_add r r.r_counters name (fun () -> { c_value = 0 })

let gauge (t : t) name : gauge =
  match t with
  | None -> null_gauge
  | Some r ->
      find_or_add r r.r_gauges name (fun () -> { g_value = 0 })

let histogram (t : t) name : histogram =
  match t with
  | None -> null_hist
  | Some r -> find_or_add r r.r_hists name fresh_hist

let probe (t : t) name (read : unit -> int) : unit =
  match t with
  | None -> ()
  | Some r ->
      Mutex.protect r.r_lock (fun () -> Hashtbl.replace r.r_probes name read)

let atomically (t : t) (f : unit -> 'a) : 'a =
  match t with None -> f () | Some r -> Mutex.protect r.r_lock f

let join (view : t) (member : t) : unit =
  match (view, member) with
  | Some v, Some m when v != m ->
      Mutex.protect v.r_lock (fun () ->
          if not (List.memq m v.r_members) then
            v.r_members <- v.r_members @ [ m ])
  | _ -> ()

let incr (c : counter) = c.c_value <- c.c_value + 1
let add (c : counter) n = c.c_value <- c.c_value + n
let counter_value (c : counter) = c.c_value

let set (g : gauge) v = g.g_value <- v
let gauge_value (g : gauge) = g.g_value

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)
(* ------------------------------------------------------------------ *)

let bucket_of (v : int) : int =
  if v <= 0 then 0
  else begin
    (* 1 + floor(log2 v): the number of significant bits *)
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    let b = bits v 0 in
    if b >= bucket_count then bucket_count - 1 else b
  end

(** Inclusive upper bound of a bucket: the largest value that bins there. *)
let bucket_hi (i : int) : int =
  if i <= 0 then 0
  else if i >= bucket_count - 1 then max_int
  else (1 lsl i) - 1

let sat_add a b =
  let s = a + b in
  if a > 0 && b > 0 && s < 0 then max_int else s

let observe (h : histogram) (v : int) : unit =
  h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- sat_add h.h_sum v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count (h : histogram) = h.h_count
let hist_sum (h : histogram) = h.h_sum

(** [quantile h q] for [q] in [0,1]: the upper bound of the bucket holding
    the [ceil (q * count)]-th smallest observation; [0] when empty. *)
let quantile (h : histogram) (q : float) : int =
  if h.h_count = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
    let rank = max 1 (min h.h_count rank) in
    let rec go i acc =
      if i >= bucket_count then max_int
      else
        let acc = acc + h.h_buckets.(i) in
        if acc >= rank then bucket_hi i else go (i + 1) acc
    in
    go 0 0
  end

(** Elementwise-add [src] into [into]; counts, sums and extrema combine so
    merged quantiles are consistent with observing both streams into one
    histogram. *)
let merge_hist ~(into : histogram) (src : histogram) : unit =
  Array.iteri
    (fun i n -> into.h_buckets.(i) <- into.h_buckets.(i) + n)
    src.h_buckets;
  into.h_count <- into.h_count + src.h_count;
  into.h_sum <- sat_add into.h_sum src.h_sum;
  if src.h_min < into.h_min then into.h_min <- src.h_min;
  if src.h_max > into.h_max then into.h_max <- src.h_max

(* ------------------------------------------------------------------ *)
(* Spans (recording half; the timing half is {!Span}).                 *)
(* ------------------------------------------------------------------ *)

(* A span's stat record, minted at its first entry in first-entered
   order. *)
let mint_span r path =
  find_or_add r r.r_spans path (fun () ->
      let s =
        { sp_name = path; sp_seq = r.r_seq; sp_count = 0; sp_ns = 0;
          sp_words = 0 }
      in
      r.r_seq <- r.r_seq + 1;
      s)

(** Push a span name, returning its full nesting path ("" when
    disabled). The span's stat record is minted at push, so listing order
    is entry order — parents always precede their children. *)
let span_push (t : t) (name : string) : string =
  match t with
  | None -> ""
  | Some r ->
      let path =
        match r.r_stack with [] -> name | p :: _ -> p ^ "/" ^ name
      in
      ignore (mint_span r path);
      r.r_stack <- path :: r.r_stack;
      path

let span_pop (t : t) : unit =
  match t with
  | None -> ()
  | Some r -> (
      match r.r_stack with [] -> () | _ :: rest -> r.r_stack <- rest)

let span_record (t : t) (path : string) ~(ns : int) ~(words : int) : unit =
  match t with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.r_spans path with
      | None -> ()
      | Some s ->
          s.sp_count <- s.sp_count + 1;
          s.sp_ns <- sat_add s.sp_ns ns;
          s.sp_words <- sat_add s.sp_words words)

(* ------------------------------------------------------------------ *)
(* Folding registries together.                                        *)
(* ------------------------------------------------------------------ *)

let spans_of r =
  Hashtbl.fold (fun _ s acc -> s :: acc) r.r_spans []
  |> List.sort (fun a b -> compare a.sp_seq b.sp_seq)

(* Every registry reachable from [roots] through members, each once, in
   depth-first order from the first root. *)
let closure (roots : registry list) : registry list =
  let rec visit seen r =
    if List.memq r seen then seen
    else
      let members = Mutex.protect r.r_lock (fun () -> r.r_members) in
      List.fold_left visit (r :: seen) members
  in
  List.rev (List.fold_left visit [] roots)

(* Add [src]'s own instruments into [dst], under [src]'s lock: counters
   add, gauges take the maximum (last-write-wins has no cross-registry
   order, and the peak is the useful aggregate for e.g. cache
   occupancy), histograms merge elementwise, and span stats accumulate
   (paths new to [dst] keep [src]'s relative order). *)
let add_own ~(dst : registry) (src : registry) : unit =
  let into = Some dst in
  let max_gauge n v =
    let g = find_or_add dst dst.r_gauges n (fun () -> { g_value = v }) in
    if v > g.g_value then g.g_value <- v
  in
  Mutex.protect src.r_lock @@ fun () ->
  Hashtbl.iter (fun n c -> add (counter into n) c.c_value) src.r_counters;
  Hashtbl.iter (fun n g -> max_gauge n g.g_value) src.r_gauges;
  Hashtbl.iter (fun n read -> max_gauge n (read ())) src.r_probes;
  Hashtbl.iter (fun n h -> merge_hist ~into:(histogram into n) h) src.r_hists;
  List.iter
    (fun s ->
      let d = mint_span dst s.sp_name in
      d.sp_count <- d.sp_count + s.sp_count;
      d.sp_ns <- sat_add d.sp_ns s.sp_ns;
      d.sp_words <- sat_add d.sp_words s.sp_words)
    (spans_of src)

let fold_regs (ts : t list) : registry =
  let dst = fresh () in
  List.iter (add_own ~dst) (closure (List.filter_map Fun.id ts));
  dst

let fold ts : t = Some (fold_regs ts)

(* ------------------------------------------------------------------ *)
(* Listing and snapshots.                                              *)
(* ------------------------------------------------------------------ *)

let sorted_by_name tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A registry without members or probes is listed in place, under its
   lock, as cheaply as before views existed; any other through a
   private fold. Either way a read sees one instant of each registry. *)
let read f (t : t) =
  match t with
  | Some r when r.r_members = [] && Hashtbl.length r.r_probes = 0 ->
      Mutex.protect r.r_lock (fun () -> f r)
  | _ -> f (fold_regs [ t ])

let counters_of r = sorted_by_name r.r_counters (fun c -> c.c_value)
let gauges_of r = sorted_by_name r.r_gauges (fun g -> g.g_value)
let hists_of r = sorted_by_name r.r_hists (fun h -> h)
let counters = read counters_of
let gauges = read gauges_of
let histograms = read hists_of
let spans = read spans_of

let hist_json ~stable (h : histogram) : Json.t =
  if stable then Json.Obj [ ("count", Json.Int h.h_count) ]
  else
    let buckets =
      Array.to_list h.h_buckets
      |> List.mapi (fun i n -> (i, n))
      |> List.filter (fun (_, n) -> n > 0)
      |> List.map (fun (i, n) ->
             Json.Obj [ ("le", Json.Int (bucket_hi i)); ("count", Json.Int n) ])
    in
    Json.Obj
      [
        ("count", Json.Int h.h_count);
        ("sum", Json.Int h.h_sum);
        ("min", Json.Int (if h.h_count = 0 then 0 else h.h_min));
        ("max", Json.Int (if h.h_count = 0 then 0 else h.h_max));
        ("p50", Json.Int (quantile h 0.5));
        ("p90", Json.Int (quantile h 0.9));
        ("p99", Json.Int (quantile h 0.99));
        ("buckets", Json.List buckets);
      ]

let span_json ~stable (s : span_stat) : Json.t =
  if stable then
    Json.Obj [ ("span", Json.Str s.sp_name); ("count", Json.Int s.sp_count) ]
  else
    Json.Obj
      [
        ("span", Json.Str s.sp_name);
        ("count", Json.Int s.sp_count);
        ("total_ns", Json.Int s.sp_ns);
        ("total_words", Json.Int s.sp_words);
      ]

(** One deterministic JSON object for the whole registry, members
    folded in. Counters, gauges and histograms list alphabetically; spans
    list in first-entered order (parents before children).
    [~stable:true] redacts durations, allocation totals and histogram
    value detail, keeping only counts — the golden-test rendering. *)
let snapshot ?(stable = false) (t : t) : Json.t =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  let body r =
    Json.Obj
      [
        ("counters", ints (counters_of r));
        ("gauges", ints (gauges_of r));
        ( "histograms",
          Json.Obj
            (List.map (fun (k, h) -> (k, hist_json ~stable h)) (hists_of r))
        );
        ("spans", Json.List (List.map (span_json ~stable) (spans_of r)));
      ]
  in
  read body t
