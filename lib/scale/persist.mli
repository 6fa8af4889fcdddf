(** Crash-safe persistent byte store for the compile cache ([--cache-dir]).

    A directory of content-addressed entries that must never take the
    server down, whatever is on disk. The defenses, in order:

    - {b Atomic writes}: every file (entries and the writer file) is
      written to a temp file in the same directory and [rename]d into
      place, so a reader never observes a half-written final file and a
      crash mid-write leaves at worst a stray temp.
    - {b Self-describing entries}: each file starts with a one-line
      header — magic, format version, a digest of the writing
      executable, the payload's MD5 and its length. A torn, truncated,
      corrupted or foreign file fails validation and is treated as a
      miss: unlinked (self-healed) and recompiled, never an exception.
    - {b One writer executable}: marshaled values (type layouts, module
      initialisation's {!Tc_support.Ident.t} stamps) are only readable
      by the executable that wrote them. {!open_dir} writes a
      header-only [writer] file naming it once, and wipes entries under
      no writer file or another executable's.
    - {b Single writer}: an advisory [Unix.lockf] lock on [<dir>/lock]
      is held for the store's lifetime. If another process holds it,
      this store opens {e disabled} (every operation a no-op) rather
      than corrupting a live writer's directory. Locks are per-process,
      so reopening the same directory inside one process (the cold
      restart tests) succeeds.

    Fault injection: {!Tc_resilience.Inject.Cache_write} makes {!write}
    produce a deliberately torn (truncated) entry, and
    {!Tc_resilience.Inject.Cache_read} makes {!read} treat a valid
    entry as corrupt — both exercise the self-healing path without any
    exception escaping the store. *)

type t

(** What {!open_dir} found. [exclusive] is false when another process
    holds the writer lock (store disabled); [wiped] is true when entries
    with no writer file, or another executable's, were cleared. *)
type init_report = {
  exclusive : bool;
  wiped : bool;
}

(** Open (creating if needed) a store rooted at [dir]. Never raises on
    bad directory contents — unusable state is wiped and reported. *)
val open_dir : dir:string -> t * init_report

(** Release the writer lock. Further operations are no-ops. *)
val close : t -> unit

(** [read t ~key] fetches the payload stored under [key]. [`Corrupt]
    means a file existed but failed validation (or the read-corruption
    injection fired) and has been unlinked. *)
val read : t -> key:string -> [ `Hit of string | `Miss | `Corrupt ]

(** [write t ~key ~payload] persists [payload] under [key]. [`Skipped] when the store is disabled or
    the write failed (a full disk must not take the server down);
    [`Torn] when the write-corruption injection truncated it. *)
val write : t -> key:string -> payload:string -> [ `Written | `Torn | `Skipped ]

(** [remove t ~key] unlinks the entry, if present (verification-failure
    healing). *)
val remove : t -> key:string -> unit

(** Non-destructive directory summary for [mhc stats]:
    [(entries, bytes, corrupt)] — valid entry count, their total payload
    bytes, and how many files failed validation (left in place). *)
val scan : dir:string -> int * int * int
