(* Tarjan's strongly-connected components over named bindings. *)

let components ~name ~free (binds : 'a list) : ('a list * bool) list =
  let n = List.length binds in
  let arr = Array.of_list binds in
  let frees = Array.map free arr in
  let index_of : int Ident.Tbl.t = Ident.Tbl.create 64 in
  Array.iteri (fun i b -> Ident.Tbl.replace index_of (name b) i) arr;
  let adj =
    Array.map
      (fun fv ->
        Ident.Set.fold
          (fun v acc ->
            match Ident.Tbl.find_opt index_of v with
            | Some j -> j :: acc
            | None -> acc)
          fv [])
      frees
  in
  let indices = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    indices.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if indices.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) indices.(w))
      adj.(v);
    if lowlink.(v) = indices.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if indices.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components dependencies-first; they were accumulated
     by prepending, so reverse to restore dependency order. *)
  List.rev_map
    (function
      | [ v ] -> ([ arr.(v) ], Ident.Set.mem (name arr.(v)) frees.(v))
      | vs -> (List.map (fun v -> arr.(v)) vs, true))
    !components
