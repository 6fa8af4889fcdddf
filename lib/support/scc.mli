(** Strongly-connected components of a list of named bindings (Tarjan). *)

(** [components ~name ~free binds] splits [binds] into minimal
    strongly-connected groups, returned in dependency order: a group
    comes after every group it refers to. An edge runs from a binding to
    each binding whose [name] occurs in its [free] variables; names that
    bind nothing in [binds] are ignored. Each group carries whether it is
    recursive: always for two or more bindings, and for a single binding
    when it mentions its own name. [free] is computed once per binding. *)
val components :
  name:('a -> Ident.t) ->
  free:('a -> Ident.Set.t) ->
  'a list ->
  ('a list * bool) list
