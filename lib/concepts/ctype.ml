(* The small "type language" over which concepts state their requirements.

   A concept never talks about concrete OCaml types directly; it talks about
   - named ground types registered in a {!Registry} ([Named "int"]),
   - concept type parameters ([Var "G"]),
   - associated-type projections ([Assoc (Var "G", "vertex_type")]), and
   - type constructor applications ([App ("list", [Named "int"])]).

   Checking a model then amounts to resolving every [Var] and [Assoc] to a
   ground type and comparing structurally. *)

type t =
  | Named of string
  | Var of string
  | Assoc of t * string
  | App of string * t list

let rec equal a b =
  match a, b with
  | Named x, Named y -> String.equal x y
  | Var x, Var y -> String.equal x y
  | Assoc (t, x), Assoc (u, y) -> String.equal x y && equal t u
  | App (f, xs), App (g, ys) ->
    String.equal f g
    && List.length xs = List.length ys
    && List.for_all2 equal xs ys
  | (Named _ | Var _ | Assoc _ | App _), _ -> false

let rec compare a b =
  let tag = function Named _ -> 0 | Var _ -> 1 | Assoc _ -> 2 | App _ -> 3 in
  match a, b with
  | Named x, Named y -> String.compare x y
  | Var x, Var y -> String.compare x y
  | Assoc (t, x), Assoc (u, y) ->
    let c = compare t u in
    if c <> 0 then c else String.compare x y
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else List.compare compare xs ys
  | a, b -> Int.compare (tag a) (tag b)

let rec pp ppf = function
  | Named s -> Fmt.string ppf s
  | Var s -> Fmt.pf ppf "'%s" s
  | Assoc (t, field) -> Fmt.pf ppf "%a.%s" pp t field
  | App (f, args) -> Fmt.pf ppf "%s<%a>" f Fmt.(list ~sep:comma pp) args

(* The same text [pp] prints, written straight into a buffer. [pp]'s
   argument separator is a Format break: on one line it prints as a
   space; inside a vertical box it always breaks, which [break_indent]
   reproduces as a newline and that many spaces. *)
let rec add_to_buffer ?break_indent buf = function
  | Named s -> Buffer.add_string buf s
  | Var s ->
    Buffer.add_char buf '\'';
    Buffer.add_string buf s
  | Assoc (t, field) ->
    add_to_buffer ?break_indent buf t;
    Buffer.add_char buf '.';
    Buffer.add_string buf field
  | App (f, args) ->
    Buffer.add_string buf f;
    Buffer.add_char buf '<';
    add_list_to_buffer ?break_indent buf args;
    Buffer.add_char buf '>'

and add_list_to_buffer ?break_indent buf = function
  | [] -> ()
  | [ a ] -> add_to_buffer ?break_indent buf a
  | a :: rest ->
    add_to_buffer ?break_indent buf a;
    Buffer.add_char buf ',';
    (match break_indent with
    | None -> Buffer.add_char buf ' '
    | Some n ->
      Buffer.add_char buf '\n';
      for _ = 1 to n do Buffer.add_char buf ' ' done);
    add_list_to_buffer ?break_indent buf rest

let to_string = function
  | Named s -> s
  | t ->
    let buf = Buffer.create 32 in
    add_to_buffer buf t;
    Buffer.contents buf

(* Substitute concept parameters by actual types. *)
let rec subst env t =
  match t with
  | Named _ -> t
  | Var v -> (match List.assoc_opt v env with Some u -> u | None -> t)
  | Assoc (u, field) -> Assoc (subst env u, field)
  | App (f, args) -> App (f, List.map (subst env) args)

(* All parameter variables occurring in a type, in first-occurrence order. *)
let vars t =
  let rec go acc = function
    | Named _ -> acc
    | Var v -> if List.mem v acc then acc else v :: acc
    | Assoc (u, _) -> go acc u
    | App (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] t)

let is_ground t = vars t = []
