(** A minimal JSON value type and printer.

    The observability layer emits machine-readable output ([mhc trace
    --json], [mhc profile --json]) without an external JSON dependency;
    this is the one place the encoding lives. Output is deterministic:
    object fields print in the order given. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let rec pp ppf (v : t) =
  match v with
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.string ppf (if b then "true" else "false")
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.string ppf (float_str f)
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | List vs ->
      Fmt.pf ppf "@[<hv 2>[%a]@]"
        (Fmt.list ~sep:(Fmt.any ",@ ") pp) vs
  | Obj fields ->
      Fmt.pf ppf "@[<hv 2>{%a}@]"
        (Fmt.list ~sep:(Fmt.any ",@ ")
           (fun ppf (k, v) -> Fmt.pf ppf "\"%s\": %a" (escape k) pp v))
        fields

let to_string (v : t) : string = Fmt.str "%a" pp v

(* Single-line rendering for NDJSON protocols ([mhc serve]): no
   formatter boxes, so the output can never wrap. *)
let to_line (v : t) : string =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_str f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing. [mhc serve] reads newline-delimited JSON requests; this     *)
(* recursive-descent parser is the decoding half of the encoder above.  *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> parse_fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word (v : t) : t =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else parse_fail "bad literal at offset %d" c.pos

(* The index of the first ['"'] or ['\\'] at or after [i], or the
   length of [src]: the end of a run a string copies as it is. *)
let rec run_end src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' -> i
    | _ -> run_end src (i + 1)

let parse_string_body c : string =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_fail "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> parse_fail "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
                 if c.pos + 4 > String.length c.src then
                   parse_fail "truncated \\u escape";
                 let hex = String.sub c.src c.pos 4 in
                 c.pos <- c.pos + 4;
                 let code =
                   match int_of_string_opt ("0x" ^ hex) with
                   | Some n -> n
                   | None -> parse_fail "bad \\u escape %S" hex
                 in
                 (match Uchar.of_int code with
                  | u -> Buffer.add_utf_8_uchar buf u
                  | exception Invalid_argument _ ->
                      Buffer.add_utf_8_uchar buf Uchar.rep)
             | e -> parse_fail "bad escape '\\%c'" e);
            go ())
    | Some _ ->
        let stop = run_end c.src c.pos in
        Buffer.add_substring buf c.src c.pos (stop - c.pos);
        c.pos <- stop;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c : t =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && is_num_char c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let text = String.sub c.src start (c.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail "bad number %S at offset %d" text start)

let rec parse_value c : t =
  skip_ws c;
  match peek c with
  | None -> parse_fail "unexpected end of input"
  | Some '"' ->
      c.pos <- c.pos + 1;
      Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin c.pos <- c.pos + 1; List [] end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; items (v :: acc)
          | Some ']' -> c.pos <- c.pos + 1; List (List.rev (v :: acc))
          | _ -> parse_fail "expected ',' or ']' at offset %d" c.pos
        in
        items []
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin c.pos <- c.pos + 1; Obj [] end
      else
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; fields (kv :: acc)
          | Some '}' -> c.pos <- c.pos + 1; Obj (List.rev (kv :: acc))
          | _ -> parse_fail "expected ',' or '}' at offset %d" c.pos
        in
        fields []
  | Some _ -> parse_number c

let parse (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing input at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors (for decoding requests).                                  *)
(* ------------------------------------------------------------------ *)

let member (k : string) (v : t) : t option =
  match v with Obj fields -> List.assoc_opt k fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
