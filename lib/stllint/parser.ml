(* A C++-flavoured surface syntax for the checked language, so STLlint
   runs on program text (gp lint --file prog.cxx). The grammar mirrors
   the AST:

     program   ::= stmt*
     stmt      ::= decl | iter-stmt | member | algo-stmt | while | if
     decl      ::= ("vector"|"list"|"deque"|"istream") ident ["sorted"] ";"
     iter-stmt ::= "iter" ident "=" rhs ";"        declaration
                 | ident "=" rhs ";"               assignment
                 | "++" ident ";" | "--" ident ";"
                 | "*" ident ";"                   deref for effect
                 | "*" ident "=" expr ";"          deref write
     rhs       ::= ident ".begin()" | ident ".end()" | "singular"
                 | ident ".erase(" ident ")"
                 | ident ".insert(" ident "," expr ")"
                 | algo-call
                 | ident                           copy of an iterator
     member    ::= ident ".push_back(" expr ")" ";"
                 | ident ".push_front(" expr ")" ";"
                 | ident ".pop_back()" ";"
                 | ident ".erase(" ident ")" ";"
                 | ident ".insert(" ident "," expr ")" ";"
     algo-stmt ::= algo-call ";"
     algo-call ::= ident "(" arg ("," arg)* ")"
     arg       ::= ident                container range OR iterator OR pred
                 | ident ".." ident     explicit iterator range
                 | integer              a value
                 | "*" ident            dereference value
     while     ::= "while" "(" cond ")" "{" stmt* "}"
     if        ::= "if" "(" cond ")" "{" stmt* "}" ["else" "{" stmt* "}"]
     cond      ::= ident "!=" ident | ident "==" ident | expr
     expr      ::= integer | "*" ident | ident | ident "(" expr* ")"

   Whether a bare identifier argument is a container range, an iterator,
   or an opaque predicate is resolved against the declarations seen so
   far — the same contextual typing a real frontend performs. Comments
   are [// ...].

   The lexer is a cursor over the source string: an int position and
   line, characters read with [String.unsafe_get] behind explicit bounds
   checks, identifiers cut out with one [String.sub] of their span and
   integers accumulated in place. Punctuation tokens are constant
   constructors, so the parser compares immediates. *)

exception Parse_error of { line : int; message : string }

type token =
  | Tid of string
  | Tint of int
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Semi
  | Star
  | Assign
  | Dot
  | Lt
  | Gt
  | Plus_plus
  | Minus_minus
  | Bang_eq
  | Eq_eq
  | Dot_dot
  | Teof

let punct_text = function
  | Lparen -> "("
  | Rparen -> ")"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Comma -> ","
  | Semi -> ";"
  | Star -> "*"
  | Assign -> "="
  | Dot -> "."
  | Lt -> "<"
  | Gt -> ">"
  | Plus_plus -> "++"
  | Minus_minus -> "--"
  | Bang_eq -> "!="
  | Eq_eq -> "=="
  | Dot_dot -> ".."
  | Tid _ | Tint _ | Teof -> assert false

type lexer = { src : string; len : int; mutable pos : int; mutable line : int }

let error lx fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line = lx.line; message })) fmt

let is_digit c = c >= '0' && c <= '9'

let is_id c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let second_is lx c =
  lx.pos + 1 < lx.len && String.unsafe_get lx.src (lx.pos + 1) = c

(* Whitespace and [//] comments; the comment's newline is whitespace. *)
let rec skip_ws lx =
  if lx.pos < lx.len then
    match String.unsafe_get lx.src lx.pos with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx
    | '\n' ->
      lx.pos <- lx.pos + 1;
      lx.line <- lx.line + 1;
      skip_ws lx
    | '/' when second_is lx '/' ->
      let p = ref (lx.pos + 2) in
      while !p < lx.len && String.unsafe_get lx.src !p <> '\n' do
        incr p
      done;
      lx.pos <- !p;
      skip_ws lx
    | _ -> ()

let punct lx width tok =
  lx.pos <- lx.pos + width;
  tok

(* A digit run from [start], accumulated in place; a literal past
   [max_int] is a parse error, not an [int_of_string] failure. *)
let rec lex_int lx start v =
  let p = lx.pos in
  if p < lx.len && is_digit (String.unsafe_get lx.src p) then begin
    let d = Char.code (String.unsafe_get lx.src p) - Char.code '0' in
    lx.pos <- p + 1;
    if v > (max_int - d) / 10 then begin
      while lx.pos < lx.len && is_digit (String.unsafe_get lx.src lx.pos) do
        lx.pos <- lx.pos + 1
      done;
      error lx "integer literal %s is out of range"
        (String.sub lx.src start (lx.pos - start))
    end;
    lex_int lx start ((v * 10) + d)
  end
  else Tint v

let next lx =
  skip_ws lx;
  if lx.pos >= lx.len then Teof
  else
    match String.unsafe_get lx.src lx.pos with
    | '0' .. '9' -> lex_int lx lx.pos 0
    | c when is_id c ->
      let start = lx.pos in
      let p = ref (start + 1) in
      while !p < lx.len && is_id (String.unsafe_get lx.src !p) do
        incr p
      done;
      lx.pos <- !p;
      Tid (String.sub lx.src start (!p - start))
    | '+' when second_is lx '+' -> punct lx 2 Plus_plus
    | '-' when second_is lx '-' -> punct lx 2 Minus_minus
    | '!' when second_is lx '=' -> punct lx 2 Bang_eq
    | '=' when second_is lx '=' -> punct lx 2 Eq_eq
    | '.' when second_is lx '.' -> punct lx 2 Dot_dot
    | '(' -> punct lx 1 Lparen
    | ')' -> punct lx 1 Rparen
    | '{' -> punct lx 1 Lbrace
    | '}' -> punct lx 1 Rbrace
    | ',' -> punct lx 1 Comma
    | ';' -> punct lx 1 Semi
    | '*' -> punct lx 1 Star
    | '=' -> punct lx 1 Assign
    | '.' -> punct lx 1 Dot
    | '<' -> punct lx 1 Lt
    | '>' -> punct lx 1 Gt
    | c -> error lx "unexpected character %c" c

(* Whether the token after the current one is a lone '=', without
   building it. *)
let next_is_assign lx =
  let save_pos = lx.pos and save_line = lx.line in
  skip_ws lx;
  let r =
    lx.pos < lx.len
    && String.unsafe_get lx.src lx.pos = '='
    && not (second_is lx '=')
  in
  lx.pos <- save_pos;
  lx.line <- save_line;
  r

type stream = {
  lx : lexer;
  mutable tok : token;
  mutable containers : (string * Ast.container_kind) list;
  mutable iters : string list;
}

let mk src =
  let lx = { src; len = String.length src; pos = 0; line = 1 } in
  { lx; tok = next lx; containers = []; iters = [] }

let shift s = s.tok <- next s.lx

(* [p] is punctuation: a constant constructor, so [==] is exact. *)
let expect s p =
  if s.tok == p then shift s else error s.lx "expected '%s'" (punct_text p)

let accept s p =
  s.tok == p
  && begin
    shift s;
    true
  end

let ident s =
  match s.tok with
  | Tid x ->
    shift s;
    x
  | _ -> error s.lx "expected an identifier"

let rec is_iter x = function
  | [] -> false
  | y :: ys -> String.equal x y || is_iter x ys

let rec is_container x = function
  | [] -> false
  | (y, _) :: ys -> String.equal x y || is_container x ys

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* Source text for labels: the first line of the statement, trimmed, so a
   compound statement's diagnostic points at its head. Index scans find
   that line; only it is copied. *)
let label_of lx start stop =
  let a = ref start in
  while !a < stop && is_ws (String.unsafe_get lx.src !a) do
    incr a
  done;
  let e = ref !a in
  while !e < stop && String.unsafe_get lx.src !e <> '\n' do
    incr e
  done;
  while !e > !a && is_ws (String.unsafe_get lx.src (!e - 1)) do
    decr e
  done;
  String.sub lx.src !a (!e - !a)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr s =
  match s.tok with
  | Tint k ->
    shift s;
    Ast.Const k
  | Star ->
    shift s;
    Ast.Deref (ident s)
  | Tid f ->
    shift s;
    if accept s Lparen then
      Ast.Call (f, if accept s Rparen then [] else parse_exprs s [])
    else Ast.Var f
  | _ -> error s.lx "expected an expression"

(* A non-empty comma-separated list up to its closing ')'. *)
and parse_exprs s acc =
  let e = parse_expr s in
  if accept s Comma then parse_exprs s (e :: acc)
  else begin
    expect s Rparen;
    List.rev (e :: acc)
  end

let parse_cond s =
  match s.tok with
  | Tid a when is_iter a s.iters -> (
    let a = ident s in
    if accept s Bang_eq then Ast.Iter_ne (a, ident s)
    else if accept s Eq_eq then Ast.Iter_eq (a, ident s)
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
  | Star ->
    shift s;
    Ast.A_value (Ast.Deref (ident s))
  | Tid x ->
    shift s;
    if accept s Dot_dot then
      let y = ident s in
      Ast.A_range (Ast.R_iters (x, y))
    else if is_container x s.containers then Ast.A_range (Ast.R_container x)
    else if is_iter x s.iters then Ast.A_iter x
    else Ast.A_pred x
  | _ -> error s.lx "expected an argument"

let rec parse_args s acc =
  let a = parse_arg s in
  if accept s Comma then parse_args s (a :: acc)
  else begin
    expect s Rparen;
    List.rev (a :: acc)
  end

let parse_algo_call s =
  expect s Lparen;
  if accept s Rparen then [] else parse_args s []

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
  | Tid x when is_container x s.containers -> (
    shift s;
    expect s Dot;
    let m = ident s in
    match m with
    | "begin" ->
      expect s Lparen;
      expect s Rparen;
      `Init (Ast.Begin_of x)
    | "end" ->
      expect s Lparen;
      expect s Rparen;
      `Init (Ast.End_of x)
    | "erase" ->
      expect s Lparen;
      let at = ident s in
      expect s Rparen;
      `Stmt (Ast.Erase { container = x; at; result = Some result_name })
    | "insert" ->
      expect s Lparen;
      let at = ident s in
      expect s Comma;
      let v = parse_expr s in
      expect s Rparen;
      `Stmt
        (Ast.Insert { container = x; at; value = v; result = Some result_name })
    | _ -> error s.lx "container %s has no member %s usable here" x m)
  | Tid x when is_iter x s.iters ->
    shift s;
    `Init (Ast.Copy_of x)
  | Tid algo -> (
    shift s;
    match s.tok with
    | Lparen ->
      let args = parse_algo_call s in
      `Stmt (Ast.Algo { algo; args; result = Some result_name })
    | _ -> error s.lx "unknown name %s on the right of '='" algo)
  | _ -> error s.lx "expected an iterator initialiser"

(* The label runs from the statement's first token (from just after it,
   when that token is punctuation) to the end of the lookahead token
   after the statement; [label_of] keeps the first line. *)
let finish s start node =
  { Ast.label = label_of s.lx (max 0 start) s.lx.pos; node }

let rec parse_stmt s =
  let start = s.lx.pos - (match s.tok with Tid x -> String.length x | _ -> 0) in
  match s.tok with
  | Tid kw -> (
    match container_kind_of kw with
    | Some kind ->
      shift s;
      (* optional template argument: vector<int> *)
      if accept s Lt then begin
        (match s.tok with Tid _ -> shift s | _ -> ());
        expect s Gt
      end;
      let name = ident s in
      let sorted =
        match s.tok with
        | Tid "sorted" ->
          shift s;
          true
        | _ -> false
      in
      expect s Semi;
      s.containers <- (name, kind) :: s.containers;
      finish s start (Ast.Decl_container { name; kind; sorted })
    | None -> parse_word_stmt s start kw)
  | Plus_plus ->
    shift s;
    let x = ident s in
    expect s Semi;
    finish s start (Ast.Incr x)
  | Minus_minus ->
    shift s;
    let x = ident s in
    expect s Semi;
    finish s start (Ast.Decr x)
  | Star ->
    shift s;
    let x = ident s in
    if accept s Assign then begin
      let e = parse_expr s in
      expect s Semi;
      finish s start (Ast.Deref_write (x, e))
    end
    else begin
      expect s Semi;
      finish s start (Ast.Deref_read x)
    end
  | _ -> error s.lx "expected a statement"

(* A statement opening with an identifier that is not a container kind. *)
and parse_word_stmt s start = function
  | "iter" when not (next_is_assign s.lx) -> (
    (* 'iter' introduces a declaration unless the next token is '=', in
       which case it is an ordinary variable named iter (as in the
       paper's own Fig. 4 listing) *)
    shift s;
    let name = ident s in
    s.iters <- name :: s.iters;
    expect s Assign;
    match parse_rhs s ~result_name:name with
    | `Init init ->
      expect s Semi;
      finish s start (Ast.Decl_iter { name; init })
    | `Stmt node ->
      expect s Semi;
      finish s start node)
  | "while" ->
    shift s;
    expect s Lparen;
    let cond = parse_cond s in
    expect s Rparen;
    expect s Lbrace;
    let body = parse_block s [] in
    finish s start (Ast.While (cond, body))
  | "if" ->
    shift s;
    expect s Lparen;
    let cond = parse_cond s in
    expect s Rparen;
    expect s Lbrace;
    let then_ = parse_block s [] in
    let else_ =
      match s.tok with
      | Tid "else" ->
        shift s;
        expect s Lbrace;
        parse_block s []
      | _ -> []
    in
    finish s start (Ast.If (cond, then_, else_))
  | x when is_container x s.containers -> (
    shift s;
    expect s Dot;
    let m = ident s in
    expect s Lparen;
    match m with
    | "push_back" | "push_front" ->
      let e = parse_expr s in
      expect s Rparen;
      expect s Semi;
      finish s start
        (if String.equal m "push_back" then Ast.Push_back (x, e)
         else Ast.Push_front (x, e))
    | "pop_back" ->
      expect s Rparen;
      expect s Semi;
      finish s start (Ast.Pop_back x)
    | "erase" ->
      let at = ident s in
      expect s Rparen;
      expect s Semi;
      finish s start (Ast.Erase { container = x; at; result = None })
    | "insert" ->
      let at = ident s in
      expect s Comma;
      let v = parse_expr s in
      expect s Rparen;
      expect s Semi;
      finish s start
        (Ast.Insert { container = x; at; value = v; result = None })
    | _ -> error s.lx "unknown container member %s" m)
  | x when is_iter x s.iters -> (
    (* iterator reassignment *)
    shift s;
    expect s Assign;
    match parse_rhs s ~result_name:x with
    | `Init init ->
      expect s Semi;
      finish s start (Ast.Assign_iter { name = x; init })
    | `Stmt node ->
      expect s Semi;
      finish s start node)
  | algo -> (
    shift s;
    match s.tok with
    | Lparen ->
      let args = parse_algo_call s in
      expect s Semi;
      finish s start (Ast.Algo { algo; args; result = None })
    | _ -> error s.lx "unexpected statement starting with %s" algo)

and parse_block s acc =
  if accept s Rbrace then List.rev acc else parse_block s (parse_stmt s :: acc)

let rec parse_stmts s acc =
  match s.tok with
  | Teof -> List.rev acc
  | _ -> parse_stmts s (parse_stmt s :: acc)

let parse_program src =
  Gp_telemetry.Tel.with_span ~name:"stllint.parse" (fun () ->
      parse_stmts (mk src) [])

(* Parse then check: the complete pipeline. *)
let check_source src = Interp.check (parse_program src)
