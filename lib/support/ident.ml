(** Interned identifiers.

    Identifiers are interned so that equality and comparison are O(1) and
    stable, and so generated names (dictionary variables, specialized clones,
    ...) can be minted cheaply without collision. *)

type t = {
  id : int;      (** unique stamp *)
  text : string; (** user-visible spelling *)
}

type scope = {
  names : (string, t) Hashtbl.t;  (* spellings first interned here *)
  mutable next : int;             (* next stamp to mint *)
}

(* The process-wide names: module initialisation's and prelude snapshot
   builds'. Snapshots are built lazily on whichever domain asks first, so
   the table is guarded by one mutex. A compile's own names live in its
   domain-local scope, whose stamps count up from [first_scoped]: above
   every process-wide stamp, in creation order, as in a fresh process. *)
let global = { names = Hashtbl.create 512; next = 1 }
let lock = Mutex.create ()
let first_scoped = 1 lsl 40
let scope () = { names = Hashtbl.create 64; next = first_scoped }
let copy s = { names = Hashtbl.copy s.names; next = s.next }

(* The calling domain's scope; [None] interns process-wide. *)
let current : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let in_scope s f =
  let cur = Domain.DLS.get current in
  let saved = !cur in
  cur := s;
  Fun.protect ~finally:(fun () -> cur := saved) f

let with_scope s f = in_scope (Some s) f
let unscoped f = in_scope None f

let next_stamp s =
  let n = s.next in
  if s == global && n >= first_scoped then
    failwith "Ident: process-wide stamps reached the scope range";
  s.next <- n + 1;
  n

let add s text =
  let id = { id = next_stamp s; text } in
  Hashtbl.add s.names text id;
  id

let intern text =
  match !(Domain.DLS.get current) with
  | None -> (
      Mutex.protect lock @@ fun () ->
      match Hashtbl.find_opt global.names text with
      | Some id -> id
      | None -> add global text)
  | Some s -> (
      match Hashtbl.find_opt s.names text with
      | Some id -> id
      | None -> (
          match
            Mutex.protect lock (fun () -> Hashtbl.find_opt global.names text)
          with
          | Some id -> id
          | None -> add s text))

let gensym base =
  let stamp =
    match !(Domain.DLS.get current) with
    | None -> Mutex.protect lock (fun () -> next_stamp global)
    | Some s -> next_stamp s
  in
  { id = stamp; text = Printf.sprintf "%s_%d" base stamp }

let snapshot () : (string * int) list * int =
  Mutex.protect lock @@ fun () ->
  let pairs =
    Hashtbl.fold (fun text id acc -> (text, id.id) :: acc) global.names []
  in
  (List.sort compare pairs, global.next - 1)

let interned () = Mutex.protect lock (fun () -> Hashtbl.length global.names)

let text t = t.text
let stamp t = t.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id
let pp ppf t = Fmt.string ppf t.text

(** Print with the unique stamp; useful when dumping IR where distinct
    identifiers may share a spelling. *)
let pp_unique ppf t = Fmt.pf ppf "%s/%d" t.text t.id

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
