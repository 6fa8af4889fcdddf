(** Monotonic counters for minting unique integers (type-variable ids,
    placeholder ids, ...). Distinct supplies are independent. A supply is
    an atomic counter: compiles on several domains share one supply and
    share the prelude snapshot's ids, so two domains must never be handed
    the same integer. *)

type t = int Atomic.t

let create ?(start = 0) () = Atomic.make start

let next t = Atomic.fetch_and_add t 1

let peek t = Atomic.get t
