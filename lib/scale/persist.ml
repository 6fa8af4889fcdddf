(** Crash-safe persistent byte store; see the interface for the design. *)

module Inject = Tc_resilience.Inject

let magic = "mhc-persist"
let version = 1

(* Marshaled OCaml values are only safe to read back into the exact
   binary that wrote them (type layouts, and module initialisation's
   identifier stamps, must agree). The executable digest in every header
   enforces it; a rebuild simply starts the cache cold. Computed once —
   hashing the binary costs milliseconds, not per-entry time. Memoized
   under a mutex rather than [lazy]: pool workers race to the first use,
   and concurrently forcing a lazy from two domains raises
   [CamlinternalLazy.Undefined]. *)
let exe_digest =
  let memo = ref None in
  let lock = Mutex.create () in
  fun () ->
    Mutex.protect lock (fun () ->
        match !memo with
        | Some d -> d
        | None ->
            let d =
              try Digest.to_hex (Digest.file Sys.executable_name)
              with Sys_error _ -> "unknown-exe"
            in
            memo := Some d;
            d)

type init_report = {
  exclusive : bool;
  wiped : bool;
}

type t = {
  dir : string;
  mutable exclusive : bool;  (* we hold the writer lock; ops no-op otherwise *)
  mutable lock_fd : Unix.file_descr option;
}

let entry_file t key = Filename.concat t.dir ("entry-" ^ key ^ ".bin")
let writer_file dir = Filename.concat dir "writer"

(* ---- file format ---- *)

let header ~payload =
  Printf.sprintf "%s %d %s %s %d\n" magic version (exe_digest ())
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(* Validate a whole file's bytes against the header they start with.
   Every failure mode — no newline, wrong magic/version, foreign
   executable, length mismatch (torn write), checksum mismatch (bit
   rot) — is the same answer: the payload cannot be trusted. *)
let validate bytes : string option =
  match String.index_opt bytes '\n' with
  | None -> None
  | Some nl -> (
      let payload = String.sub bytes (nl + 1) (String.length bytes - nl - 1) in
      match String.split_on_char ' ' (String.sub bytes 0 nl) with
      | [ m; v; exe; md5; len ] ->
          if
            m = magic
            && int_of_string_opt v = Some version
            && exe = exe_digest ()
            && int_of_string_opt len = Some (String.length payload)
            && md5 = Digest.to_hex (Digest.string payload)
          then Some payload
          else None
      | _ -> None)

let read_file path : string option =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Atomic publication: temp file in the same directory (rename must not
   cross a filesystem), then rename over the final name. The temp name
   carries a process-wide sequence number besides the pid: two pool
   workers racing to persist the same key must not interleave writes
   into one temp file (last rename wins, each rename atomic). *)
let tmp_seq = Atomic.make 0

let write_file_atomic ~dir ~path content : bool =
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1)
         (Filename.basename path))
  in
  try
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
    Sys.rename tmp path;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

(* ---- open / close ---- *)

let list_entries dir =
  match Sys.readdir dir with
  | files ->
      Array.to_list files
      |> List.filter (fun f ->
             String.starts_with ~prefix:"entry-" f
             && Filename.check_suffix f ".bin")
  | exception Sys_error _ -> []

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let try_lock dir =
  try
    let fd =
      Unix.openfile (Filename.concat dir "lock") [ O_CREAT; O_RDWR ] 0o644
    in
    try
      Unix.lockf fd F_TLOCK 0;
      Some fd
    with Unix.Unix_error _ ->
      Unix.close fd;
      None
  with Unix.Unix_error _ -> None

(* The [writer] file, a header with an empty payload, names the
   executable the entries belong to. Entries under none, or under another
   executable's, are unreadable leftovers: wipe them so reads cannot lie. *)
let claim t =
  let path = writer_file t.dir in
  Option.bind (read_file path) validate <> Some ""
  && begin
       let leftovers = list_entries t.dir in
       List.iter
         (fun f ->
           try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
         leftovers;
       ignore (write_file_atomic ~dir:t.dir ~path (header ~payload:""));
       leftovers <> []
     end

let open_dir ~dir =
  (try mkdir_p dir with Unix.Unix_error _ -> ());
  match try_lock dir with
  | None ->
      ( { dir; exclusive = false; lock_fd = None },
        { exclusive = false; wiped = false } )
  | Some fd ->
      let t = { dir; exclusive = true; lock_fd = Some fd } in
      (t, { exclusive = true; wiped = claim t })

let close t =
  t.exclusive <- false;
  match t.lock_fd with
  | None -> ()
  | Some fd ->
      t.lock_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* ---- entries ---- *)

let remove t ~key =
  if t.exclusive then
    try Sys.remove (entry_file t key) with Sys_error _ -> ()

let read t ~key =
  if not t.exclusive then `Miss
  else
    let path = entry_file t key in
    if not (Sys.file_exists path) then `Miss
    else
      match Option.bind (read_file path) validate with
      | None ->
          (* torn or corrupt: heal by unlinking, answer miss-shaped *)
          (try Sys.remove path with Sys_error _ -> ());
          `Corrupt
      | Some payload -> (
          match
            if !Inject.live then Inject.hit ~detail:key Inject.Cache_read
          with
          | () -> `Hit payload
          | exception _ ->
              (* injected read corruption: same healing path as real
                 corruption, no exception escapes the store *)
              (try Sys.remove path with Sys_error _ -> ());
              `Corrupt)

let write t ~key ~payload =
  if not t.exclusive then `Skipped
  else begin
    let torn =
      match if !Inject.live then Inject.hit ~detail:key Inject.Cache_write with
      | () -> false
      | exception _ -> true
    in
    let content =
      if torn then
        (* a crash mid-write, simulated: correct header, half the bytes *)
        header ~payload ^ String.sub payload 0 (String.length payload / 2)
      else header ~payload ^ payload
    in
    if write_file_atomic ~dir:t.dir ~path:(entry_file t key) content then
      if torn then `Torn else `Written
    else `Skipped
  end

let scan ~dir =
  List.fold_left
    (fun (n, bytes, corrupt) f ->
      match Option.bind (read_file (Filename.concat dir f)) validate with
      | Some payload -> (n + 1, bytes + String.length payload, corrupt)
      | None -> (n, bytes, corrupt + 1))
    (0, 0, 0) (list_entries dir)
