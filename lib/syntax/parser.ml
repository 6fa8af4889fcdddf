(** Recursive-descent parser for MiniHaskell.

    Operates on the layout-processed token stream ({!Layout.tokenize}).
    Infix expressions are parsed as flat operator sequences ([EOpSeq]) and
    rebuilt into applications by {!Fixity.resolve} once fixity declarations
    have been collected. *)

open Tc_support
open Ast

type state = {
  toks : Token.spanned array;
  mutable pos : int;
  (* The deepest failure seen while backtracking: (position, diagnostic).
     When a later parse fails *before* that point, the deeper error is the
     more specific one and is reported instead, so speculative parses
     (signatures, function-binding heads, contexts) never hide the real
     problem. *)
  mutable furthest : (int * Diagnostic.t) option;
}

(* [Array.of_list] would fill the token array with its first (young)
   token, and a young initial value makes every array above 256 words run
   a minor collection first. Fill with this long-lived token instead. *)
let filler : Token.spanned = { tok = Token.EOF; loc = Loc.none }

let make_state toks =
  let toks_a = Array.make (List.length toks) filler in
  List.iteri (fun i t -> toks_a.(i) <- t) toks;
  { toks = toks_a; pos = 0; furthest = None }

let peek st = st.toks.(st.pos).Token.tok
let peek_loc st = st.toks.(st.pos).Token.loc

let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Token.tok
  else Token.EOF

let advance st =
  let t = st.toks.(st.pos) in
  if st.pos + 1 < Array.length st.toks then st.pos <- st.pos + 1;
  t

(** Record a failure caught during backtracking, keeping the deepest one. *)
let note st (d : Diagnostic.t) =
  match st.furthest with
  | Some (p, _) when p >= st.pos -> ()
  | _ -> st.furthest <- Some (st.pos, d)

(** Raise [d], unless a noted backtracking failure got strictly further —
    then that one carries the more specific message. *)
let raise_best st (d : Diagnostic.t) =
  match st.furthest with
  | Some (p, fd) when p > st.pos -> raise (Diagnostic.Error fd)
  | _ -> raise (Diagnostic.Error d)

let error st fmt =
  Format.kasprintf
    (fun message ->
      raise_best st
        (Diagnostic.make ~severity:Diagnostic.Error ~loc:(peek_loc st) message))
    ("parse error: " ^^ fmt ^^ " (found '%s')")

let fail_expect st what = error st "expected %s" what (Token.to_string (peek st))

let expect st tok what =
  if peek st = tok then advance st else fail_expect st what

let accept st tok = if peek st = tok then (ignore (advance st); true) else false

let reraise d = raise (Diagnostic.Error d)

(* ------------------------------------------------------------------ *)
(* Small token classifiers.                                            *)
(* ------------------------------------------------------------------ *)

let is_varid st = match peek st with Token.VARID _ -> true | _ -> false
let is_conid st = match peek st with Token.CONID _ -> true | _ -> false

(** A variable name: [x] or a parenthesized operator [(==)] / [(:)] . *)
let parse_var st =
  match peek st with
  | Token.VARID s ->
      let t = advance st in
      (Ident.intern s, t.loc)
  | Token.LPAREN -> (
      match peek2 st with
      | Token.VARSYM s | Token.CONSYM s ->
          let l = (advance st).loc in
          ignore (advance st);
          let r = expect st Token.RPAREN "')'" in
          (Ident.intern s, Loc.merge l r.loc)
      | _ -> fail_expect st "a variable")
  | _ -> fail_expect st "a variable"

let parse_conid st =
  match peek st with
  | Token.CONID s ->
      let t = advance st in
      (Ident.intern s, t.loc)
  | _ -> fail_expect st "a constructor or type name"

let parse_varid st =
  match peek st with
  | Token.VARID s ->
      let t = advance st in
      (Ident.intern s, t.loc)
  | _ -> fail_expect st "an identifier"

(** An infix operator occurrence: symbolic, [:], or a backquoted name.
    Returns [None] without consuming if the next token is not an operator. *)
let peek_operator st : (Ident.t * Loc.t * int) option =
  (* third component: number of tokens the operator occupies *)
  match peek st with
  | Token.VARSYM s -> Some (Ident.intern s, peek_loc st, 1)
  | Token.CONSYM s -> Some (Ident.intern s, peek_loc st, 1)
  | Token.BACKQUOTE -> (
      match peek2 st with
      | Token.VARID s | Token.CONID s ->
          if st.pos + 2 < Array.length st.toks
             && st.toks.(st.pos + 2).Token.tok = Token.BACKQUOTE
          then Some (Ident.intern s, peek_loc st, 3)
          else None
      | _ -> None)
  | _ -> None

let consume_operator st n =
  for _ = 1 to n do
    ignore (advance st)
  done

(* ------------------------------------------------------------------ *)
(* Blocks: { p ; p ; ... } with virtual or explicit braces.             *)
(* ------------------------------------------------------------------ *)

(* [report] receives an item's parse error. If it returns, the block
   skips to the next item and goes on; nested blocks pass [reraise], so
   their errors reach the enclosing declaration. *)
let parse_block ~(report : Diagnostic.t -> unit) st (parse_item : state -> 'a)
    : 'a list =
  let close =
    if accept st Token.VLBRACE then Token.VRBRACE
    else if accept st Token.LBRACE then Token.RBRACE
    else fail_expect st "a block"
  in
  let items = ref [] in
  let rec skip_semis () =
    if accept st Token.SEMI || accept st Token.VSEMI then skip_semis ()
  in
  (* Skip forward to the next item boundary: a separator or close brace at
     bracket depth 0. The layout pass inserts VSEMI exactly at each
     declaration that starts at the block's reference column, so for the
     top-level block this resynchronizes at the next top-level
     declaration. *)
  let resynced = ref false in
  let resync () =
    resynced := true;
    let depth = ref 0 in
    let stop = ref false in
    while not !stop do
      match peek st with
      | Token.EOF -> stop := true
      | Token.VLBRACE | Token.LBRACE ->
          incr depth;
          ignore (advance st)
      | Token.VRBRACE | Token.RBRACE ->
          if !depth > 0 then begin
            decr depth;
            ignore (advance st)
          end
          else if peek2 st = Token.EOF then
            (* the block's own close: recovery only runs on the top-level
               block, so its close brace is always followed by EOF *)
            stop := true
          else
            (* a stray closer from a block left unfinished at the error
               point (e.g. an aborted [let]): skip it and keep scanning *)
            ignore (advance st)
      | (Token.VSEMI | Token.SEMI) when !depth = 0 -> stop := true
      | _ -> ignore (advance st)
    done
  in
  let rec go () =
    skip_semis ();
    if peek st = close then ignore (advance st)
    else if peek st = Token.EOF && !resynced then
      (* a recovery skip may have consumed the close; treat EOF as end of
         block *)
      ()
    else begin
      let start = st.pos in
      match
        let item = parse_item st in
        items := item :: !items;
        match peek st with
        | t when t = close -> `Close
        | Token.SEMI | Token.VSEMI -> `More
        | _ -> fail_expect st "';' or end of block"
      with
      | `Close -> ignore (advance st)
      | `More -> go ()
      | exception Diagnostic.Error d ->
          report d;
          st.furthest <- None;
          if st.pos = start then ignore (advance st);
          resync ();
          go ()
    end
  in
  go ();
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Types.                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_qtyp st : sqtyp =
  let start = peek_loc st in
  (* A context is syntactically a btype followed by '=>'; we detect it by
     backtracking. *)
  let saved = st.pos in
  let context =
    match try_parse_context st with
    | Some ctx when peek st = Token.DARROW ->
        ignore (advance st);
        ctx
    | _ ->
        st.pos <- saved;
        []
  in
  let t = parse_typ st in
  { sq_context = context; sq_ty = t; sq_loc = Loc.merge start (peek_loc st) }

and try_parse_context st : spred list option =
  try
    if peek st = Token.LPAREN && not (is_pred_start (peek2 st)) then None
    else if peek st = Token.LPAREN then begin
      (* ( C t, C t, ... ) => ... *)
      ignore (advance st);
      if accept st Token.RPAREN then Some []
      else begin
        let preds = ref [ parse_pred st ] in
        while accept st Token.COMMA do
          preds := parse_pred st :: !preds
        done;
        ignore (expect st Token.RPAREN "')'");
        Some (List.rev !preds)
      end
    end
    else if is_conid st then Some [ parse_pred st ]
    else None
  with Diagnostic.Error d ->
    note st d;
    None

and is_pred_start = function Token.CONID _ -> true | _ -> false

and parse_pred st : spred =
  let cls, l = parse_conid st in
  let ty = parse_atype st in
  { sp_class = cls; sp_ty = ty; sp_loc = Loc.merge l (peek_loc st) }

and parse_typ st : styp =
  let t = parse_btype st in
  if accept st Token.ARROW then TSFun (t, parse_typ st) else t

and parse_btype st : styp =
  let head = parse_atype st in
  let rec go acc =
    if starts_atype st then go (TSApp (acc, parse_atype st)) else acc
  in
  go head

and starts_atype st =
  match peek st with
  | Token.CONID _ | Token.VARID _ | Token.LPAREN | Token.LBRACKET -> true
  | _ -> false

and parse_atype st : styp =
  match peek st with
  | Token.CONID s ->
      ignore (advance st);
      TSCon (Ident.intern s)
  | Token.VARID s ->
      ignore (advance st);
      TSVar (Ident.intern s)
  | Token.LBRACKET ->
      ignore (advance st);
      let t = parse_typ st in
      ignore (expect st Token.RBRACKET "']'");
      TSList t
  | Token.LPAREN ->
      ignore (advance st);
      if accept st Token.RPAREN then TSTuple []
      else begin
        let t = parse_typ st in
        if accept st Token.COMMA then begin
          let ts = ref [ parse_typ st; t ] in
          while accept st Token.COMMA do
            ts := parse_typ st :: !ts
          done;
          ignore (expect st Token.RPAREN "')'");
          TSTuple (List.rev !ts)
        end
        else begin
          ignore (expect st Token.RPAREN "')'");
          t
        end
      end
  | _ -> fail_expect st "a type"

(* ------------------------------------------------------------------ *)
(* Patterns.                                                           *)
(* ------------------------------------------------------------------ *)

let rec parse_pat st : pat =
  (* cons is the only infix constructor: right-associative *)
  let p = parse_pat10 st in
  match peek st with
  | Token.CONSYM ":" ->
      ignore (advance st);
      let rest = parse_pat st in
      mk_pat ~loc:(Loc.merge p.p_loc rest.p_loc)
        (PCon (Ident.intern ":", [ p; rest ]))
  | _ -> p

and parse_pat10 st : pat =
  match peek st with
  | Token.CONID s when starts_apat_after_con st ->
      let l = (advance st).loc in
      let args = parse_apats st in
      let last_loc =
        match List.rev args with a :: _ -> a.p_loc | [] -> l
      in
      mk_pat ~loc:(Loc.merge l last_loc) (PCon (Ident.intern s, args))
  | _ -> parse_apat st

and starts_apat_after_con st =
  match peek2 st with
  | Token.VARID _ | Token.CONID _ | Token.UNDERSCORE | Token.LPAREN
  | Token.LBRACKET | Token.INT _ | Token.FLOAT _ | Token.CHAR _
  | Token.STRING _ ->
      true
  | _ -> false

and parse_apats st : pat list =
  if starts_apat st then
    let p = parse_apat st in
    p :: parse_apats st
  else []

and starts_apat st =
  match peek st with
  | Token.VARID _ | Token.CONID _ | Token.UNDERSCORE | Token.LPAREN
  | Token.LBRACKET | Token.INT _ | Token.FLOAT _ | Token.CHAR _
  | Token.STRING _ ->
      true
  | _ -> false

and parse_apat st : pat =
  let loc = peek_loc st in
  match peek st with
  | Token.VARID s ->
      ignore (advance st);
      let x = Ident.intern s in
      if accept st Token.AT then
        let p = parse_apat st in
        mk_pat ~loc:(Loc.merge loc p.p_loc) (PAs (x, p))
      else mk_pat ~loc (PVar x)
  | Token.UNDERSCORE ->
      ignore (advance st);
      mk_pat ~loc PWild
  | Token.CONID s ->
      ignore (advance st);
      mk_pat ~loc (PCon (Ident.intern s, []))
  | Token.INT n ->
      ignore (advance st);
      mk_pat ~loc (PLit (LInt n))
  | Token.FLOAT f ->
      ignore (advance st);
      mk_pat ~loc (PLit (LFloat f))
  | Token.CHAR c ->
      ignore (advance st);
      mk_pat ~loc (PLit (LChar c))
  | Token.STRING s ->
      ignore (advance st);
      mk_pat ~loc (PLit (LString s))
  | Token.VARSYM "-" when (match peek2 st with Token.INT _ | Token.FLOAT _ -> true | _ -> false) ->
      ignore (advance st);
      (match advance st with
       | { Token.tok = Token.INT n; _ } -> mk_pat ~loc (PLit (LInt (-n)))
       | { Token.tok = Token.FLOAT f; _ } -> mk_pat ~loc (PLit (LFloat (-.f)))
       | _ -> assert false)
  | Token.LBRACKET ->
      ignore (advance st);
      if accept st Token.RBRACKET then mk_pat ~loc (PList [])
      else begin
        let ps = ref [ parse_pat st ] in
        while accept st Token.COMMA do
          ps := parse_pat st :: !ps
        done;
        let close = expect st Token.RBRACKET "']'" in
        mk_pat ~loc:(Loc.merge loc close.loc) (PList (List.rev !ps))
      end
  | Token.LPAREN ->
      ignore (advance st);
      if accept st Token.RPAREN then mk_pat ~loc (PTuple [])
      else begin
        let p = parse_pat st in
        if accept st Token.COMMA then begin
          let ps = ref [ parse_pat st; p ] in
          while accept st Token.COMMA do
            ps := parse_pat st :: !ps
          done;
          let close = expect st Token.RPAREN "')'" in
          mk_pat ~loc:(Loc.merge loc close.loc) (PTuple (List.rev !ps))
        end
        else begin
          ignore (expect st Token.RPAREN "')'");
          p
        end
      end
  | _ -> fail_expect st "a pattern"

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : expr =
  let e = parse_opseq st in
  if accept st Token.DCOLON then
    let t = parse_qtyp st in
    mk_expr ~loc:(Loc.merge e.e_loc t.sq_loc) (EAnnot (e, t))
  else e

and parse_opseq st : expr =
  let first = parse_operand st in
  let rec go acc =
    match peek_operator st with
    (* an operator directly followed by ')' belongs to a left section *)
    | Some (op, oloc, n) when peek_after st n <> Token.RPAREN ->
        consume_operator st n;
        let operand = parse_operand st in
        go ((op, oloc, operand) :: acc)
    | Some _ | None -> acc
  in
  let rhs = List.rev (go []) in
  if rhs = [] then first
  else
    let last = match List.rev rhs with (_, _, e) :: _ -> e | [] -> first in
    mk_expr ~loc:(Loc.merge first.e_loc last.e_loc) (EOpSeq (first, rhs))

and parse_operand st : expr =
  match peek st with
  | Token.VARSYM "-" ->
      let l = (advance st).loc in
      let e = parse_operand st in
      mk_expr ~loc:(Loc.merge l e.e_loc) (ENeg e)
  | _ -> parse_exp10 st

and parse_exp10 st : expr =
  let loc = peek_loc st in
  match peek st with
  | Token.LAMBDA ->
      ignore (advance st);
      let ps = parse_apats st in
      if ps = [] then fail_expect st "lambda parameters";
      ignore (expect st Token.ARROW "'->'");
      let body = parse_expr st in
      mk_expr ~loc:(Loc.merge loc body.e_loc) (ELam (ps, body))
  | Token.KW_let ->
      ignore (advance st);
      let ds = parse_block ~report:reraise st parse_decl in
      ignore (expect st Token.KW_in "'in'");
      let body = parse_expr st in
      mk_expr ~loc:(Loc.merge loc body.e_loc) (ELet (ds, body))
  | Token.KW_if ->
      ignore (advance st);
      let c = parse_expr st in
      ignore (expect st Token.KW_then "'then'");
      let t = parse_expr st in
      ignore (expect st Token.KW_else "'else'");
      let f = parse_expr st in
      mk_expr ~loc:(Loc.merge loc f.e_loc) (EIf (c, t, f))
  | Token.KW_case ->
      ignore (advance st);
      let scrut = parse_expr st in
      ignore (expect st Token.KW_of "'of'");
      let alts = parse_block ~report:reraise st parse_alt in
      mk_expr ~loc:(Loc.merge loc (peek_loc st)) (ECase (scrut, alts))
  | _ -> parse_fexp st

and parse_alt st : alt =
  let p = parse_pat st in
  let rhs = parse_rhs st ~sep:Token.ARROW in
  { alt_pat = p; alt_rhs = rhs }

and parse_fexp st : expr =
  let head = parse_aexp st in
  let rec go acc =
    if starts_aexp st then
      let a = parse_aexp st in
      go (mk_expr ~loc:(Loc.merge acc.e_loc a.e_loc) (EApp (acc, a)))
    else acc
  in
  go head

and starts_aexp st =
  match peek st with
  | Token.VARID _ | Token.CONID _ | Token.INT _ | Token.FLOAT _
  | Token.CHAR _ | Token.STRING _ | Token.LPAREN | Token.LBRACKET ->
      true
  | _ -> false

and parse_aexp st : expr =
  let loc = peek_loc st in
  match peek st with
  | Token.VARID s ->
      ignore (advance st);
      mk_expr ~loc (EVar (Ident.intern s))
  | Token.CONID s ->
      ignore (advance st);
      mk_expr ~loc (ECon (Ident.intern s))
  | Token.INT n ->
      ignore (advance st);
      mk_expr ~loc (ELit (LInt n))
  | Token.FLOAT f ->
      ignore (advance st);
      mk_expr ~loc (ELit (LFloat f))
  | Token.CHAR c ->
      ignore (advance st);
      mk_expr ~loc (ELit (LChar c))
  | Token.STRING s ->
      ignore (advance st);
      mk_expr ~loc (ELit (LString s))
  | Token.LBRACKET ->
      ignore (advance st);
      if accept st Token.RBRACKET then mk_expr ~loc (EList [])
      else begin
        let first = parse_expr st in
        if accept st Token.DOTDOT then
          (* arithmetic sequence: [a..] or [a..b] *)
          if accept st Token.RBRACKET then
            mk_expr ~loc:(Loc.merge loc (peek_loc st)) (ERange (first, None))
          else begin
            let upper = parse_expr st in
            let close = expect st Token.RBRACKET "']'" in
            mk_expr ~loc:(Loc.merge loc close.loc) (ERange (first, Some upper))
          end
        else begin
          let es = ref [ first ] in
          while accept st Token.COMMA do
            es := parse_expr st :: !es
          done;
          let close = expect st Token.RBRACKET "']'" in
          mk_expr ~loc:(Loc.merge loc close.loc) (EList (List.rev !es))
        end
      end
  | Token.LPAREN -> parse_paren st loc
  | _ -> fail_expect st "an expression"

and parse_paren st loc : expr =
  ignore (advance st);
  (* () | (op) | (op e) | (e) | (e, ...) | (e op) *)
  if accept st Token.RPAREN then mk_expr ~loc (ETuple [])
  else
    match peek_operator st with
    | Some (op, oloc, n) when n = 1 && Ident.text op <> "-" ->
        (* symbolic operator directly after '(': (op) or right section *)
        consume_operator st n;
        if accept st Token.RPAREN then
          mk_expr ~loc:(Loc.merge loc oloc) (operator_ref op oloc)
        else begin
          let e = parse_opseq st in
          let close = expect st Token.RPAREN "')'" in
          mk_expr ~loc:(Loc.merge loc close.loc) (ERightSection (op, e))
        end
    | _ ->
        let e = parse_expr st in
        if accept st Token.COMMA then begin
          let es = ref [ parse_expr st; e ] in
          while accept st Token.COMMA do
            es := parse_expr st :: !es
          done;
          let close = expect st Token.RPAREN "')'" in
          mk_expr ~loc:(Loc.merge loc close.loc) (ETuple (List.rev !es))
        end
        else
          match peek_operator st with
          | Some (op, _, n) when peek_after st n = Token.RPAREN ->
              consume_operator st n;
              let close = expect st Token.RPAREN "')'" in
              mk_expr ~loc:(Loc.merge loc close.loc) (ELeftSection (e, op))
          | _ ->
              let close = expect st Token.RPAREN "')'" in
              mk_expr ~loc:(Loc.merge loc close.loc) e.e

and peek_after st n =
  if st.pos + n < Array.length st.toks then st.toks.(st.pos + n).Token.tok
  else Token.EOF

and operator_ref op oloc : expr_node =
  ignore oloc;
  let s = Ident.text op in
  if s = ":" || (String.length s > 0 && s.[0] = ':') then ECon op else EVar op

(* ------------------------------------------------------------------ *)
(* Right-hand sides, guards, where.                                    *)
(* ------------------------------------------------------------------ *)

and parse_rhs st ~sep : rhs =
  let loc = peek_loc st in
  let body =
    if peek st = Token.BAR then begin
      let guards = ref [] in
      while accept st Token.BAR do
        let cond = parse_expr st in
        ignore (expect st sep (if sep = Token.EQUALS then "'='" else "'->'"));
        let e = parse_expr st in
        guards := (cond, e) :: !guards
      done;
      Guarded (List.rev !guards)
    end
    else begin
      ignore (expect st sep (if sep = Token.EQUALS then "'='" else "'->'"));
      Unguarded (parse_expr st)
    end
  in
  let where_decls =
    if accept st Token.KW_where then parse_block ~report:reraise st parse_decl
    else []
  in
  { rhs_body = body; rhs_where = where_decls; rhs_loc = Loc.merge loc (peek_loc st) }

(* ------------------------------------------------------------------ *)
(* Declarations.                                                       *)
(* ------------------------------------------------------------------ *)

and parse_decl st : decl =
  let loc = peek_loc st in
  match peek st with
  | Token.KW_infixl | Token.KW_infixr | Token.KW_infix ->
      let assoc =
        match (advance st).tok with
        | Token.KW_infixl -> LeftAssoc
        | Token.KW_infixr -> RightAssoc
        | _ -> NonAssoc
      in
      let prec =
        match peek st with
        | Token.INT n when n >= 0 && n <= 9 ->
            ignore (advance st);
            n
        | _ -> fail_expect st "a precedence between 0 and 9"
      in
      let ops = ref [] in
      let rec get_ops () =
        match peek_operator st with
        | Some (op, _, n) ->
            consume_operator st n;
            ops := op :: !ops;
            if accept st Token.COMMA then get_ops ()
        | None -> fail_expect st "an operator"
      in
      get_ops ();
      DFix (assoc, prec, List.rev !ops, Loc.merge loc (peek_loc st))
  | _ ->
      (* try a type signature: vars :: qtyp *)
      let saved = st.pos in
      (match try_parse_sig st loc with
       | Some d -> d
       | None ->
           st.pos <- saved;
           parse_bind st loc)

and try_parse_sig st loc : decl option =
  (* Speculative part: the 'vars ::' head. A '::' commits us to a
     signature, so errors in the type that follows are real and must
     propagate rather than being swallowed by backtracking. *)
  let head =
    try
      let names = ref [ fst (parse_var st) ] in
      while accept st Token.COMMA do
        names := fst (parse_var st) :: !names
      done;
      if accept st Token.DCOLON then Some (List.rev !names) else None
    with Diagnostic.Error d ->
      note st d;
      None
  in
  match head with
  | None -> None
  | Some names ->
      let t = parse_qtyp st in
      Some (DSig (names, t, Loc.merge loc t.sq_loc))

and parse_bind st loc : decl =
  (* Attempt 1: function binding  var apat+ rhs  (or (op) apat+ rhs).
     Only the head 'var apat*' is speculative — an '='/'|' after it
     commits to this form, so errors in the right-hand side propagate
     instead of being retried (and mis-reported) as a pattern binding. *)
  let saved = st.pos in
  let funbind_head =
    try
      let name, name_loc = parse_var st in
      let pats = parse_apats st in
      if peek st = Token.EQUALS || peek st = Token.BAR then
        Some (name, name_loc, pats)
      else None
    with Diagnostic.Error d ->
      note st d;
      None
  in
  match funbind_head with
  | Some (name, name_loc, pats) ->
      if pats <> [] then
        let rhs = parse_rhs st ~sep:Token.EQUALS in
        DFun (name, { eq_pats = pats; eq_rhs = rhs }, Loc.merge loc rhs.rhs_loc)
      else
        (* a variable binding, e.g.  f = e  or  (==) = primEqInt *)
        let rhs = parse_rhs st ~sep:Token.EQUALS in
        DPat (mk_pat ~loc:name_loc (PVar name), rhs, Loc.merge loc rhs.rhs_loc)
  | None ->
      st.pos <- saved;
      (* Attempt 2: infix definition  pat op pat rhs — same commit point. *)
      let infix_head =
        try
          let p1 = parse_pat10 st in
          match peek_operator st with
          | Some (op, _, n) when Ident.text op <> ":" ->
              consume_operator st n;
              let p2 = parse_pat10 st in
              if peek st = Token.EQUALS || peek st = Token.BAR then
                Some (op, p1, p2)
              else None
          | _ -> None
        with Diagnostic.Error d ->
          note st d;
          None
      in
      (match infix_head with
       | Some (op, p1, p2) ->
           let rhs = parse_rhs st ~sep:Token.EQUALS in
           DFun (op, { eq_pats = [ p1; p2 ]; eq_rhs = rhs }, Loc.merge loc rhs.rhs_loc)
       | None ->
           st.pos <- saved;
           (* Attempt 3: pattern binding  pat rhs. *)
           let p = parse_pat st in
           let rhs = parse_rhs st ~sep:Token.EQUALS in
           DPat (p, rhs, Loc.merge loc rhs.rhs_loc))

(* ------------------------------------------------------------------ *)
(* Top-level declarations.                                             *)
(* ------------------------------------------------------------------ *)

let parse_deriving st : id list =
  if accept st Token.KW_deriving then
    if accept st Token.LPAREN then begin
      if accept st Token.RPAREN then []
      else begin
        let cs = ref [ fst (parse_conid st) ] in
        while accept st Token.COMMA do
          cs := fst (parse_conid st) :: !cs
        done;
        ignore (expect st Token.RPAREN "')'");
        List.rev !cs
      end
    end
    else [ fst (parse_conid st) ]
  else []

let parse_con_decl st : con_decl =
  let name, loc = parse_conid st in
  let rec args acc =
    if starts_atype st then args (parse_atype st :: acc) else List.rev acc
  in
  { cd_name = name; cd_args = args []; cd_loc = loc }

let parse_params st : id list =
  let rec go acc =
    if is_varid st then go (fst (parse_varid st) :: acc) else List.rev acc
  in
  go []

(** Optional context before a class/instance head: [ctx =>]. *)
let parse_opt_context st : spred list =
  let saved = st.pos in
  match try_parse_context st with
  | Some ctx when peek st = Token.DARROW ->
      ignore (advance st);
      ctx
  | _ ->
      st.pos <- saved;
      []

let parse_where_body st : decl list =
  if accept st Token.KW_where then parse_block ~report:reraise st parse_decl
  else []

let parse_top_decl st : top_decl =
  let loc = peek_loc st in
  match peek st with
  | Token.KW_data ->
      ignore (advance st);
      let name, _ = parse_conid st in
      let params = parse_params st in
      ignore (expect st Token.EQUALS "'='");
      let cons = ref [ parse_con_decl st ] in
      while accept st Token.BAR do
        cons := parse_con_decl st :: !cons
      done;
      let deriv = parse_deriving st in
      TData
        {
          td_name = name;
          td_params = params;
          td_cons = List.rev !cons;
          td_deriving = deriv;
          td_loc = Loc.merge loc (peek_loc st);
        }
  | Token.KW_type ->
      ignore (advance st);
      let name, _ = parse_conid st in
      let params = parse_params st in
      ignore (expect st Token.EQUALS "'='");
      let body = parse_typ st in
      TSyn
        {
          ts_name = name;
          ts_params = params;
          ts_body = body;
          ts_loc = Loc.merge loc (peek_loc st);
        }
  | Token.KW_class ->
      ignore (advance st);
      let supers = parse_opt_context st in
      let name, _ = parse_conid st in
      let var, _ = parse_varid st in
      let body = parse_where_body st in
      TClass
        {
          tc_supers = supers;
          tc_name = name;
          tc_var = var;
          tc_body = body;
          tc_loc = Loc.merge loc (peek_loc st);
        }
  | Token.KW_instance ->
      ignore (advance st);
      let ctx = parse_opt_context st in
      let cls, _ = parse_conid st in
      let head = parse_atype st in
      let body = parse_where_body st in
      TInstance
        {
          ti_context = ctx;
          ti_class = cls;
          ti_head = head;
          ti_body = body;
          ti_loc = Loc.merge loc (peek_loc st);
        }
  | _ -> TDecl (parse_decl st)

(** Parse a complete program (the whole file is one layout block). Parse
    errors are reported to [sink]; a recovering sink lets parsing
    resynchronize at the next top-level declaration. *)
let parse_program_tokens ~sink toks : program =
  let st = make_state toks in
  let report = Diagnostic.Sink.report sink in
  let decls = parse_block ~report st parse_top_decl in
  (if peek st <> Token.EOF then
     try ignore (fail_expect st "end of file")
     with Diagnostic.Error d -> report d);
  decls

let parse_program ~sink ~file src : program =
  parse_program_tokens ~sink (Layout.tokenize ~file src)

(** Parse a single expression (for tests and the REPL-ish API). *)
let parse_expression ~file src : expr =
  let st = make_state (Layout.tokenize ~file src) in
  (* the layout pass wraps the input in a virtual block; skip it *)
  ignore (accept st Token.VLBRACE);
  let e = parse_expr st in
  ignore (accept st Token.VRBRACE);
  ignore (expect st Token.EOF "end of input");
  e
