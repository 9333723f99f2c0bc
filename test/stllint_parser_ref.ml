(* The previous STLlint surface-syntax parser — an option-peeking,
   Buffer-building lexer with string punctuation tokens — kept verbatim
   as a test oracle for [Gp_stllint.Parser]: both must produce the same
   AST, labels included, or the same [Parse_error] line and message.
   It still lets [int_of_string] fail on an overflowing literal, which
   the new parser turns into a [Parse_error]. *)

open Gp_stllint

exception Parse_error of { line : int; message : string }

type token =
  | Tid of string
  | Tint of int
  | Tp of string (* punctuation *)
  | Teof

type lexer = { src : string; mutable pos : int; mutable line : int }

let error lx fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line = lx.line; message })) fmt

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let is_id c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance lx;
    skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/'
    ->
    while peek lx <> None && peek lx <> Some '\n' do
      advance lx
    done;
    skip_ws lx
  | _ -> ()

let two_char lx a b =
  peek lx = Some a
  && lx.pos + 1 < String.length lx.src
  && lx.src.[lx.pos + 1] = b

let next lx =
  skip_ws lx;
  match peek lx with
  | None -> Teof
  | Some c when c >= '0' && c <= '9' ->
    let b = Buffer.create 4 in
    while (match peek lx with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      Buffer.add_char b (Option.get (peek lx));
      advance lx
    done;
    Tint (int_of_string (Buffer.contents b))
  | Some c when is_id c ->
    let b = Buffer.create 8 in
    while (match peek lx with Some c when is_id c -> true | _ -> false) do
      Buffer.add_char b (Option.get (peek lx));
      advance lx
    done;
    Tid (Buffer.contents b)
  | Some _ when two_char lx '+' '+' ->
    advance lx;
    advance lx;
    Tp "++"
  | Some _ when two_char lx '-' '-' ->
    advance lx;
    advance lx;
    Tp "--"
  | Some _ when two_char lx '!' '=' ->
    advance lx;
    advance lx;
    Tp "!="
  | Some _ when two_char lx '=' '=' ->
    advance lx;
    advance lx;
    Tp "=="
  | Some _ when two_char lx '.' '.' ->
    advance lx;
    advance lx;
    Tp ".."
  | Some (( '(' | ')' | '{' | '}' | ',' | ';' | '*' | '=' | '.' | '<' | '>' ) as c)
    ->
    advance lx;
    Tp (String.make 1 c)
  | Some c -> error lx "unexpected character %c" c

type stream = {
  lx : lexer;
  mutable tok : token;
  mutable containers : (string * Ast.container_kind) list;
  mutable iters : string list;
}

let mk src =
  let lx = { src; pos = 0; line = 1 } in
  { lx; tok = next lx; containers = []; iters = [] }

let shift s = s.tok <- next s.lx

let expect s p =
  match s.tok with
  | Tp q when q = p -> shift s
  | _ -> error s.lx "expected '%s'" p

let accept s p =
  match s.tok with
  | Tp q when q = p ->
    shift s;
    true
  | _ -> false

let ident s =
  match s.tok with
  | Tid x ->
    shift s;
    x
  | _ -> error s.lx "expected an identifier"

(* One token of extra lookahead, without consuming. *)
let peek_ahead s =
  let save_pos = s.lx.pos and save_line = s.lx.line in
  let t = next s.lx in
  s.lx.pos <- save_pos;
  s.lx.line <- save_line;
  t

(* Source text for labels: the first line of the statement, trimmed, so a
   compound statement's diagnostic points at its head. *)
let label_of lx start stop =
  let text = String.trim (String.sub lx.src start (stop - start)) in
  let head =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  String.trim head

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr s =
  match s.tok with
  | Tint k ->
    shift s;
    Ast.Const k
  | Tp "*" ->
    shift s;
    Ast.Deref (ident s)
  | Tid f ->
    shift s;
    if accept s "(" then begin
      let args =
        if accept s ")" then []
        else begin
          let rec go acc =
            let e = parse_expr s in
            if accept s "," then go (e :: acc) else List.rev (e :: acc)
          in
          let args = go [] in
          expect s ")";
          args
        end
      in
      Ast.Call (f, args)
    end
    else Ast.Var f
  | _ -> error s.lx "expected an expression"

let parse_cond s =
  match s.tok with
  | Tid a when List.mem a s.iters -> (
    let a = ident s in
    if accept s "!=" then Ast.Iter_ne (a, ident s)
    else if accept s "==" then Ast.Iter_eq (a, ident s)
    else error s.lx "expected '!=' or '==' after iterator %s" a)
  | _ -> Ast.Pred (parse_expr s)

(* ------------------------------------------------------------------ *)
(* Algorithm calls                                                     *)
(* ------------------------------------------------------------------ *)

let parse_arg s =
  match s.tok with
  | Tint k ->
    shift s;
    Ast.A_value (Ast.Const k)
  | Tp "*" ->
    shift s;
    Ast.A_value (Ast.Deref (ident s))
  | Tid x ->
    shift s;
    if accept s ".." then
      let y = ident s in
      Ast.A_range (Ast.R_iters (x, y))
    else if List.mem_assoc x s.containers then Ast.A_range (Ast.R_container x)
    else if List.mem x s.iters then Ast.A_iter x
    else Ast.A_pred x
  | _ -> error s.lx "expected an argument"

let parse_algo_call s name =
  (* '(' already consumed by caller? no: consume here *)
  expect s "(";
  let args =
    if accept s ")" then []
    else begin
      let rec go acc =
        let a = parse_arg s in
        if accept s "," then go (a :: acc) else List.rev (a :: acc)
      in
      let args = go [] in
      expect s ")";
      args
    end
  in
  (name, args)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let container_kind_of = function
  | "vector" -> Some Ast.Vector
  | "list" -> Some Ast.List_
  | "deque" -> Some Ast.Deque
  | "istream" -> Some Ast.Istream
  | _ -> None

(* right-hand sides of iterator bindings *)
let parse_rhs s ~result_name =
  match s.tok with
  | Tid "singular" ->
    shift s;
    `Init Ast.Singular_init
  | Tid x when List.mem_assoc x s.containers -> (
    shift s;
    expect s ".";
    let m = ident s in
    match m with
    | "begin" ->
      expect s "(";
      expect s ")";
      `Init (Ast.Begin_of x)
    | "end" ->
      expect s "(";
      expect s ")";
      `Init (Ast.End_of x)
    | "erase" ->
      expect s "(";
      let at = ident s in
      expect s ")";
      `Stmt (Ast.Erase { container = x; at; result = Some result_name })
    | "insert" ->
      expect s "(";
      let at = ident s in
      expect s ",";
      let v = parse_expr s in
      expect s ")";
      `Stmt (Ast.Insert { container = x; at; value = v; result = Some result_name })
    | _ -> error s.lx "container %s has no member %s usable here" x m)
  | Tid x when List.mem x s.iters ->
    shift s;
    `Init (Ast.Copy_of x)
  | Tid algo -> (
    shift s;
    match s.tok with
    | Tp "(" ->
      let name, args = parse_algo_call s algo in
      `Stmt (Ast.Algo { algo = name; args; result = Some result_name })
    | _ -> error s.lx "unknown name %s on the right of '='" algo)
  | _ -> error s.lx "expected an iterator initialiser"

let rec parse_stmt s =
  let start = s.lx.pos - (match s.tok with Tid x -> String.length x | _ -> 0) in
  let finish node =
    let stop = s.lx.pos in
    { Ast.label = label_of s.lx (max 0 start) stop; node }
  in
  match s.tok with
  | Tid kw when container_kind_of kw <> None ->
    shift s;
    (* optional template argument: vector<int> *)
    if accept s "<" then begin
      (match s.tok with Tid _ -> shift s | _ -> ());
      expect s ">"
    end;
    let name = ident s in
    let sorted = (match s.tok with Tid "sorted" -> shift s; true | _ -> false) in
    expect s ";";
    s.containers <- (name, Option.get (container_kind_of kw)) :: s.containers;
    finish
      (Ast.Decl_container
         { name; kind = Option.get (container_kind_of kw); sorted })
  | Tid "iter" when not (match peek_ahead s with Tp "=" -> true | _ -> false) -> (
    (* 'iter' introduces a declaration unless the next token is '=', in
       which case it is an ordinary variable named iter (as in the
       paper's own Fig. 4 listing) *)
    shift s;
    let name = ident s in
    s.iters <- name :: s.iters;
    expect s "=";
    match parse_rhs s ~result_name:name with
    | `Init init ->
      expect s ";";
      finish (Ast.Decl_iter { name; init })
    | `Stmt node ->
      expect s ";";
      finish node)
  | Tid "while" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let body = parse_block s in
    finish (Ast.While (cond, body))
  | Tid "if" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let then_ = parse_block s in
    let else_ =
      match s.tok with
      | Tid "else" ->
        shift s;
        expect s "{";
        parse_block s
      | _ -> []
    in
    finish (Ast.If (cond, then_, else_))
  | Tp "++" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Incr x)
  | Tp "--" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Decr x)
  | Tp "*" -> (
    shift s;
    let x = ident s in
    if accept s "=" then begin
      let e = parse_expr s in
      expect s ";";
      finish (Ast.Deref_write (x, e))
    end
    else begin
      expect s ";";
      finish (Ast.Deref_read x)
    end)
  | Tid x when List.mem_assoc x s.containers -> (
    shift s;
    expect s ".";
    let m = ident s in
    expect s "(";
    match m with
    | "push_back" | "push_front" ->
      let e = parse_expr s in
      expect s ")";
      expect s ";";
      finish
        (if m = "push_back" then Ast.Push_back (x, e)
         else Ast.Push_front (x, e))
    | "pop_back" ->
      expect s ")";
      expect s ";";
      finish (Ast.Pop_back x)
    | "erase" ->
      let at = ident s in
      expect s ")";
      expect s ";";
      finish (Ast.Erase { container = x; at; result = None })
    | "insert" ->
      let at = ident s in
      expect s ",";
      let v = parse_expr s in
      expect s ")";
      expect s ";";
      finish (Ast.Insert { container = x; at; value = v; result = None })
    | _ -> error s.lx "unknown container member %s" m)
  | Tid x when List.mem x s.iters ->
    (* iterator reassignment *)
    shift s;
    expect s "=";
    (match parse_rhs s ~result_name:x with
    | `Init init ->
      expect s ";";
      finish (Ast.Assign_iter { name = x; init })
    | `Stmt node ->
      expect s ";";
      finish node)
  | Tid algo -> (
    shift s;
    match s.tok with
    | Tp "(" ->
      let name, args = parse_algo_call s algo in
      expect s ";";
      finish (Ast.Algo { algo = name; args; result = None })
    | _ -> error s.lx "unexpected statement starting with %s" algo)
  | _ -> error s.lx "expected a statement"

and parse_block s =
  let rec go acc =
    if accept s "}" then List.rev acc else go (parse_stmt s :: acc)
  in
  go []

let parse_program src =
  let s = mk src in
  let rec go acc =
    match s.tok with
    | Teof -> List.rev acc
    | _ -> go (parse_stmt s :: acc)
  in
  go []
