(** Dead-binding elimination: drop top-level bindings unreachable from the
    program's roots ([main] when present, otherwise every binding is kept). *)

open Tc_support
module Core = Tc_core_ir.Core

let program (p : Core.program) : Core.program =
  let roots =
    match p.p_main with
    | Some m -> [ m ]
    | None ->
        (* no main: keep everything *)
        List.concat_map
          (fun g -> List.map (fun (b : Core.bind) -> b.b_name) (Core.binds_of_group g))
          p.p_binds
  in
  let defs : Core.bind Ident.Tbl.t = Ident.Tbl.create 128 in
  List.iter
    (fun g ->
      List.iter
        (fun (b : Core.bind) -> Ident.Tbl.replace defs b.b_name b)
        (Core.binds_of_group g))
    p.p_binds;
  let reachable = Ident.Tbl.create 128 in
  let rec visit name =
    if not (Ident.Tbl.mem reachable name) then begin
      Ident.Tbl.add reachable name ();
      match Ident.Tbl.find_opt defs name with
      | Some b -> Ident.Set.iter visit (Core.free_vars b.b_expr)
      | None -> ()
    end
  in
  List.iter visit roots;
  let keep (b : Core.bind) = Ident.Tbl.mem reachable b.b_name in
  {
    p with
    p_binds =
      List.filter_map
        (function
          | Core.Nonrec b -> if keep b then Some (Core.Nonrec b) else None
          | Core.Rec bs -> (
              match List.filter keep bs with
              | [] -> None
              | bs' -> Some (Core.Rec bs')))
        p.p_binds;
  }
