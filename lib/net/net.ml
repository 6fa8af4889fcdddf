(** TCP front end (see the interface for the contract).

    Thread layout: the caller's thread runs the accept loop (also the
    drain-flag poller); one reader thread per connection reads request
    lines and submits each one to the {!Pool} with a [reply] closure
    that writes to that connection. With one worker the reader handles
    the request itself, inside [Pool.submit]; with more, the pool's
    worker domains handle it and the pool's emitter thread replies.
    Every thread that touches a socket runs on the caller's domain.
    Locks: [t.lock] (connection set, owed counts, drain state); a
    connection's [wlock] (serializing writes to its fd) is never taken
    under it.

    Never [Unix.close] a socket that may still be written: a closed
    descriptor number is immediately reusable by [accept], so a late
    write could land on a {e different} client's connection. Teardown
    therefore uses [shutdown]; [close] happens exactly once, when the
    reader has exited {e and} no responses are owed. *)

module Serve = Typeclasses.Serve
module Pool = Tc_scale.Pool
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Inject = Tc_resilience.Inject
module Mono = Tc_support.Mono

exception Bind_error of string

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;               (* serializes writes to [fd] *)
  opened_at : float;             (* Mono.now_s at accept *)
  mutable last_activity : float;
      (* Mono.now_s of the last byte read or line written: the client's
         deadlines count from here *)
  mutable alive : bool;          (* false once shut down: stop writing *)
  mutable owing : int;           (* lines submitted or broadcast, unwritten *)
  mutable reader_done : bool;
  mutable released : bool;       (* fd closed, gauges settled *)
}

type t = {
  listen_fd : Unix.file_descr;
  max_conns : int;
  read_timeout_ms : int;
  idle_timeout_ms : int;
  drain_timeout_ms : int;
  on_drain_deadline : unit -> unit;
  reg : Metrics.t;
      (* bumped by the listener's threads, which all run on the domain
         that called [run]: a bump through a handle has no safepoint, so
         none interleaves with another, and a new name registers under
         the registry's own lock *)
  lock : Mutex.t;
  quiet : Condition.t;            (* a reader exited *)
  mutable peers : conn list;      (* live connections, for OOB broadcast *)
  mutable conns : int;
  mutable readers : int;          (* live reader threads *)
  mutable drain_flag : bool;      (* set by signal handlers; polled *)
  mutable draining : bool;        (* the acted-upon state *)
  mutable lame : bool;            (* pool entered lame-duck *)
  mutable finished : bool;        (* run returned; disarms the watchdog *)
}

(* ---- registry ---- *)

let bump t name =
  Metrics.incr (Metrics.counter t.reg ("net/" ^ name))

(* Caller holds [t.lock]; [t.conns] is current. *)
let set_conns_gauges t =
  Metrics.set (Metrics.gauge t.reg "net/conns") t.conns;
  let peak = Metrics.gauge t.reg "net/conns_peak" in
  if t.conns > Metrics.gauge_value peak then Metrics.set peak t.conns

let observe_lifetime t ms =
  Metrics.observe (Metrics.histogram t.reg "net/conn_lifetime_ms") ms

(* ---- lifecycle ---- *)

let addr_of ~host ~port =
  let inet =
    try Unix.inet_addr_of_string host
    with _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with _ ->
        raise
          (Bind_error (Printf.sprintf "cannot resolve listen host %S" host)))
  in
  Unix.ADDR_INET (inet, port)

(* The listen queue of connections the kernel completes before accept. *)
let backlog = 64

let create ?(max_conns = 256) ?(read_timeout_ms = 10_000)
    ?(idle_timeout_ms = 60_000) ?(drain_timeout_ms = 5_000)
    ?(on_drain_deadline = fun () -> ()) ~host ~port () =
  (* A vanished client must surface as EPIPE on its own write, never as
     a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (addr_of ~host ~port) with
  | () -> ()
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      (try Unix.close fd with _ -> ());
      raise
        (Bind_error
           (Printf.sprintf
              "%s:%d is already in use (is another mhc serve running?)" host
              port))
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      raise
        (Bind_error
           (Printf.sprintf "cannot bind %s:%d: %s" host port
              (Unix.error_message e))));
  Unix.listen fd backlog;
  (* Accept never blocks: the accept loop selects first, but a
     connection can vanish between select and accept (RST), and a
     blocking accept there would stall drain polling. *)
  Unix.set_nonblock fd;
  {
    listen_fd = fd;
    max_conns;
    read_timeout_ms;
    idle_timeout_ms;
    drain_timeout_ms;
    on_drain_deadline;
    reg = Metrics.create ();
    lock = Mutex.create ();
    quiet = Condition.create ();
    peers = [];
    conns = 0;
    readers = 0;
    drain_flag = false;
    draining = false;
    lame = false;
    finished = false;
  }

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> 0

(* Async-signal-safe: one unlocked bool store. The accept loop polls
   it every select tick and performs the actual (lock-taking) drain. *)
let drain t = t.drain_flag <- true
let draining t = t.draining || t.drain_flag

(* Close the fd exactly once, when nothing will touch it again. Caller
   holds [t.lock]. *)
let maybe_release t conn =
  if conn.reader_done && conn.owing = 0 && not conn.released then begin
    conn.released <- true;
    t.conns <- t.conns - 1;
    t.peers <- List.filter (fun c -> c != conn) t.peers;
    set_conns_gauges t;
    observe_lifetime t
      (int_of_float ((Mono.now_s () -. conn.opened_at) *. 1000.));
    try Unix.close conn.fd with _ -> ()
  end

(* Stop both directions now (reap, drop, write failure). The fd itself
   stays open until [maybe_release]. *)
let shutdown_conn conn =
  conn.alive <- false;
  try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ()

(* SO_SNDTIMEO bounds each individual [Unix.write], but a client that
   drains a byte every few seconds keeps every write making partial
   progress, so the per-write timeout alone never fires — a write-side
   slowloris wedging the replying thread (and with it every other
   connection's responses). Bound the whole response too. *)
let write_deadline_s = 5.0

let write_all conn s =
  Mutex.protect conn.wlock @@ fun () ->
  let deadline = Mono.now_s () +. write_deadline_s in
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    if Mono.now_s () > deadline then
      raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""));
    off := !off + Unix.write conn.fd b !off (len - !off)
  done

(* Write one line the caller counted in [conn.owing]: a response from
   its [reply], or a broadcast. A client that is gone (or too slow to
   keep) loses only its own lines; its neighbours and the pool's
   accounting don't notice. The write restarts the client's deadlines. *)
let deliver t conn line =
  (if conn.alive then
     try write_all conn (line ^ "\n")
     with
     | Unix.Unix_error
         ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
           | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT ),
           _,
           _ )
     | Sys_error _
     ->
       bump t "write_drops";
       shutdown_conn conn);
  Mutex.lock t.lock;
  conn.owing <- conn.owing - 1;
  conn.last_activity <- Mono.now_s ();
  maybe_release t conn;
  Mutex.unlock t.lock

(* Out-of-band lines (spontaneous metrics snapshots) go to every live
   connection, under the same owing discipline as responses, so a
   connection's fd cannot be closed (and its descriptor number reused by
   a new accept) while a broadcast write to it is still in flight. The
   pool never calls this concurrently with a reply, so responses and
   broadcasts never interleave mid-line. *)
let broadcast t line =
  let targets =
    Mutex.protect t.lock (fun () ->
        let live = List.filter (fun c -> c.alive && not c.released) t.peers in
        List.iter (fun c -> c.owing <- c.owing + 1) live;
        live)
  in
  if targets <> [] then bump t "oob_broadcasts";
  List.iter (fun conn -> deliver t conn line) targets

(* ---- per-connection reader ---- *)

(* Wait up to one poll tick for [fd] to become readable. A signal (the
   CLI's SIGTERM or SIGUSR1 handler) interrupting the wait is an empty
   tick, not an error. *)
let readable fd =
  match Unix.select [ fd ] [] [] 0.1 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

exception Conn_dropped  (* injected Conn_drop *)
exception Conn_stalled  (* injected Slow_read: jump to the reap path *)

let reader t ~max_bytes pool conn =
  let chunk = Bytes.create 4096 in
  let line = Buffer.create 256 in
  let submit l =
    Mutex.protect t.lock (fun () -> conn.owing <- conn.owing + 1);
    (* blocks while the request waits for its turn (one worker) or for
       queue room (more): backpressure reaches the client's socket *)
    Pool.submit pool l ~reply:(deliver t conn)
  in
  (* [Serve.bounded_next]'s cap and CRLF rules, a run of bytes at a time *)
  let rec scan pos n =
    let nl = Serve.scan_line ~max_bytes line chunk pos n in
    if nl < n then begin
      submit (Serve.take_line ~max_bytes line);
      scan (nl + 1) n
    end
  in
  let outcome =
    try
      let rec loop () =
        if t.draining || t.drain_flag || not conn.alive then `Drained
        else begin
          let age_ms = (Mono.now_s () -. conn.last_activity) *. 1000. in
          (* Only the client's time counts: no deadline while a response
             is owed, and the age runs from the later of the last byte
             read and the last line written. Mid-line, the (tight) read
             deadline applies — a slowloris trickles bytes forever;
             between requests, the (loose) idle deadline — parked
             keep-alive connections are fine for a while, not forever. *)
          let limit =
            if conn.owing > 0 then 0
            else if Buffer.length line > 0 then t.read_timeout_ms
            else t.idle_timeout_ms
          in
          if limit > 0 && age_ms > float_of_int limit then `Deadline
          else if not (readable conn.fd) then loop ()
          else
            match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
            | 0 -> `Eof
            | n ->
                conn.last_activity <- Mono.now_s ();
                if !Inject.live then begin
                  (try Inject.hit ~detail:"net conn" Inject.Conn_drop
                   with Inject.Fault _ -> raise Conn_dropped);
                  try Inject.hit ~detail:"net conn" Inject.Slow_read
                  with Inject.Fault _ -> raise Conn_stalled
                end;
                scan 0 n;
                loop ()
        end
      in
      loop ()
    with
    | Conn_dropped -> `Dropped
    | Conn_stalled -> `Deadline
    | Unix.Unix_error
        ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN
          | Unix.EINTR ),
          _,
          _ ) ->
        `Eof
    | _ -> `Eof
  in
  (match outcome with
  | `Deadline ->
      bump t "reaped";
      shutdown_conn conn
  | `Dropped ->
      bump t "dropped";
      shutdown_conn conn
  | `Eof | `Drained ->
      (* normal teardown: stop reading, but responses already owed are
         still written before the fd closes *)
      ());
  Mutex.lock t.lock;
  conn.reader_done <- true;
  t.readers <- t.readers - 1;
  maybe_release t conn;
  (* [run] waits for the last reader at drain *)
  Condition.broadcast t.quiet;
  Mutex.unlock t.lock

(* ---- accept loop (and drain poller) ---- *)

let overloaded_line t =
  Json.to_line
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("class", Json.Str "overloaded");
               ( "message",
                 Json.Str
                   (Printf.sprintf
                      "connection limit %d reached; retry later" t.max_conns)
               );
             ] );
       ])

let do_drain t =
  Mutex.lock t.lock;
  if t.draining then Mutex.unlock t.lock
  else begin
    t.draining <- true;
    Mutex.unlock t.lock;
    (* Drain watchdog: a bounded exit is part of the contract — if the
       in-flight tail outlives the timeout (a wedged compile, a worker
       crash-loop), the deadline callback takes over (the CLI emits its
       final snapshot and exits 0 there). *)
    ignore
      (Thread.create
         (fun () ->
           Thread.delay (float_of_int t.drain_timeout_ms /. 1000.);
           if not t.finished then t.on_drain_deadline ())
         ())
  end

let handle_accept t ~max_bytes pool fd =
  (* A non-reading client must not wedge the thread replying to it:
     bound blocking writes, then treat the timeout as a vanished peer. *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with _ -> ());
  Mutex.lock t.lock;
  if t.conns >= t.max_conns || t.draining then begin
    Mutex.unlock t.lock;
    bump t "rejected";
    (try
       let s = overloaded_line t ^ "\n" in
       ignore (Unix.write_substring fd s 0 (String.length s))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else begin
    let now = Mono.now_s () in
    let conn =
      {
        fd;
        wlock = Mutex.create ();
        opened_at = now;
        last_activity = now;
        alive = true;
        owing = 0;
        reader_done = false;
        released = false;
      }
    in
    t.conns <- t.conns + 1;
    t.readers <- t.readers + 1;
    t.peers <- conn :: t.peers;
    set_conns_gauges t;
    Mutex.unlock t.lock;
    bump t "accepted";
    ignore (Thread.create (reader t ~max_bytes pool) conn)
  end

let accept_loop t ~max_bytes pool =
  let rec loop () =
    if t.drain_flag && not t.draining then do_drain t;
    if t.draining then (try Unix.close t.listen_fd with _ -> ())
    else begin
      (if readable t.listen_fd then
         match
           if !Inject.live then Inject.hit ~detail:"accept" Inject.Accept_fail;
           Unix.accept t.listen_fd
         with
         | fd, _ -> handle_accept t ~max_bytes pool fd
         | exception
             ( Inject.Fault _
             | Unix.Unix_error
                 ( (Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM),
                   _,
                   _ ) ) ->
             (* out of descriptors or memory: back off, keep serving the
                connections already open *)
             bump t "accept_fails";
             Thread.delay 0.01
         | exception
             Unix.Unix_error
               ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                 | Unix.ECONNABORTED ),
                 _,
                 _ ) ->
             ());
      loop ()
    end
  in
  loop ()

(* ---- serving ---- *)

let run t ?(workers = 1) ?max_restarts ?shed_grace_ms
    ?(config = Serve.default_config) () =
  let max_bytes = config.Serve.max_line_bytes in
  (* The listener's registry joins the pool's view; the caller's probe
     is composed with, not replaced by, the listener's. *)
  let view, config = Pool.view config in
  Metrics.join view t.reg;
  let caller_ready = config.Serve.ready in
  let config =
    {
      config with
      (* unsynchronized cross-domain bool reads: stale by at most a
         beat, never torn — fine for a probe *)
      ready =
        (fun () ->
          caller_ready () && (not (draining t)) && not t.lame);
    }
  in
  let pool =
    Pool.start ~workers ~config ?max_restarts ?shed_grace_ms
      ~on_lame_duck:(fun () -> t.lame <- true)
      ~emit_oob:(broadcast t) ()
  in
  accept_loop t ~max_bytes pool;
  (* Draining, with the listener closed: once the last reader exits, no
     request is being submitted, and the pool answers the ones it
     holds. *)
  Mutex.lock t.lock;
  while t.readers > 0 do
    Condition.wait t.quiet t.lock
  done;
  Mutex.unlock t.lock;
  let summary = Pool.close pool in
  t.finished <- true;
  summary
