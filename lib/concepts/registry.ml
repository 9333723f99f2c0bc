(* The registry holds everything the concept engine knows about a world of
   types: concept definitions, per-type structural descriptions (associated
   types), a global table of (free) operations, and declared models.

   Structural information supports ML-signature-style checking; declared
   models support Haskell-type-class-style nominal conformance; the paper
   (Section 2.1) discusses both. Our checker verifies the structure behind
   every nominal declaration, so a declared model is a *checked claim*.

   A registry is either a root or an overlay. A root answers lookups from
   hash indexes it owns and keeps in step with its declarations. An
   overlay is a lexical scope in the sense of G's scoped model
   declarations: a parent pointer plus local declarations, read first,
   before the parent. Declaring into an overlay never touches the
   parent, so a shared world and its indexes survive any number of
   per-request scopes. *)

type type_desc = {
  td_name : string;
  td_assoc : (string * Ctype.t) list; (* associated type bindings *)
  td_doc : string;
}

type model = {
  mo_concept : string;
  mo_args : Ctype.t list; (* ground argument types *)
  mo_axioms_asserted : string list;
      (* axioms of the concept the declarer vouches for (or has proved) *)
  mo_complexity : (string * Complexity.t) list;
      (* declared bound per operation name *)
  mo_doc : string;
}

(* (name, argument types) keys, compared with Ctype.equal. Ctype
   equality is structural, so the polymorphic hash is consistent. *)
let key_equal (c1, a1) (c2, a2) =
  String.equal c1 c2
  && List.length a1 = List.length a2
  && List.for_all2 Ctype.equal a1 a2

module Key2_tbl = Hashtbl.Make (struct
  type t = string * Ctype.t list

  let equal = key_equal
  let hash = Hashtbl.hash
end)

(* A root's lookup index, kept in step with every declaration. *)
type index = {
  ix_concepts : (string, Concept.t) Hashtbl.t;
  ix_types : (string, type_desc) Hashtbl.t;
  ix_ops : Concept.signature list Key2_tbl.t;
      (* (name, params) -> matching ops, most recent first *)
  ix_models : model Key2_tbl.t; (* (concept, args) -> most recent model *)
  ix_reachable : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* transitive-refinement closure of every concept that refines
         something: the names reachable via >= 1 edge *)
}

(* The lists are this layer's own declarations, most recent first. An
   overlay answers lookups from them; a root answers from its index and
   reads its lists only for the ordered [concepts] and [models]. *)
type t = {
  scope : scope;
  mutable concepts : (string * Concept.t) list;
  mutable types : (string * type_desc) list;
  mutable ops : Concept.signature list;
  mutable models : model list;
  mutable local_generation : int; (* declarations made in this layer *)
}

and scope = Root of index | Overlay of t

let layer scope =
  { scope; concepts = []; types = []; ops = []; models = [];
    local_generation = 0 }

(* Counted so an operator can see how many worlds a workload builds: a
   sandbox is an overlay and builds none. *)
let create () =
  Gp_telemetry.Tel.count "gp_registry_index_rebuilds_total" 1;
  layer
    (Root
       { ix_concepts = Hashtbl.create 64; ix_types = Hashtbl.create 64;
         ix_ops = Key2_tbl.create 64; ix_models = Key2_tbl.create 64;
         ix_reachable = Hashtbl.create 64 })

let overlay parent = layer (Overlay parent)

let rec generation t =
  match t.scope with
  | Root _ -> t.local_generation
  | Overlay p -> t.local_generation + generation p

exception Duplicate of string

(* ------------------------------------------------------------------ *)
(* The root index                                                      *)
(* ------------------------------------------------------------------ *)

let index_concept ix (c : Concept.t) =
  let name = c.Concept.name in
  Hashtbl.replace ix.ix_concepts name c;
  if c.Concept.refines <> [] then begin
    let reach = Hashtbl.create 16 in
    let rec dfs x =
      match Hashtbl.find_opt ix.ix_concepts x with
      | None -> ()
      | Some con ->
        List.iter
          (fun (y, _) ->
            if not (Hashtbl.mem reach y) then begin
              Hashtbl.add reach y ();
              dfs y
            end)
          con.Concept.refines
    in
    dfs name;
    (* a concept that named [name] before it was declared now reaches
       everything [name] does *)
    Hashtbl.iter
      (fun _ rz ->
        if Hashtbl.mem rz name then
          Hashtbl.iter (fun y () -> Hashtbl.replace rz y ()) reach)
      ix.ix_reachable;
    Hashtbl.replace ix.ix_reachable name reach
  end

let index_type ix (name, td) = Hashtbl.replace ix.ix_types name td

let index_op ix (s : Concept.signature) =
  let key = (s.Concept.op_name, s.Concept.op_params) in
  let prev = Option.value ~default:[] (Key2_tbl.find_opt ix.ix_ops key) in
  Key2_tbl.replace ix.ix_ops key (s :: prev)

let index_model ix m = Key2_tbl.replace ix.ix_models (m.mo_concept, m.mo_args) m

(* Every declaration bumps the generation, so memo caches keyed on it
   can never serve a stale answer, and goes into a root's index. *)
let declared t add =
  t.local_generation <- t.local_generation + 1;
  match t.scope with Root ix -> add ix | Overlay _ -> ()

(* ------------------------------------------------------------------ *)
(* Lookup: an overlay's own declarations, then its parent              *)
(* ------------------------------------------------------------------ *)

let rec find_concept t name =
  match t.scope with
  | Root ix -> Hashtbl.find_opt ix.ix_concepts name
  | Overlay p -> (
    match List.assoc_opt name t.concepts with
    | Some _ as c -> c
    | None -> find_concept p name)

let rec find_type t name =
  match t.scope with
  | Root ix -> Hashtbl.find_opt ix.ix_types name
  | Overlay p -> (
    match List.assoc_opt name t.types with
    | Some _ as td -> td
    | None -> find_type p name)

let rec find_model t concept args =
  match t.scope with
  | Root ix -> Key2_tbl.find_opt ix.ix_models (concept, args)
  | Overlay p -> (
    match
      List.find_opt (fun m -> key_equal (m.mo_concept, m.mo_args) (concept, args))
        t.models
    with
    | Some _ as m -> m
    | None -> find_model p concept args)

let rec concepts t =
  let own = List.map snd t.concepts in
  match t.scope with Root _ -> own | Overlay p -> own @ concepts p

let rec models t =
  match t.scope with Root _ -> t.models | Overlay p -> t.models @ models p

(* Look up ground operations matching name + parameter types. Several ops
   may share name and parameters but differ in return type (e.g. the nullary
   "id" of every monoid carrier), so callers needing the return type filter
   over all matches. *)
let rec find_ops t name params =
  match t.scope with
  | Root ix -> Option.value ~default:[] (Key2_tbl.find_opt ix.ix_ops (name, params))
  | Overlay p -> (
    let inherited = find_ops p name params in
    match
      List.filter
        (fun (s : Concept.signature) ->
          key_equal (s.Concept.op_name, s.Concept.op_params) (name, params))
        t.ops
    with
    | [] -> inherited
    | own -> own @ inherited)

let find_op t name params =
  match find_ops t name params with [] -> None | s :: _ -> Some s

(* Resolve a type expression to ground normal form: associated-type
   projections are looked up in the type descriptions. *)
let rec resolve t ty =
  match ty with
  | Ctype.Named _ | Ctype.Var _ -> Some ty
  | Ctype.App (f, args) ->
    let rec go acc = function
      | [] -> Some (Ctype.App (f, List.rev acc))
      | a :: rest -> (
        match resolve t a with
        | Some a' -> go (a' :: acc) rest
        | None -> None)
    in
    go [] args
  | Ctype.Assoc (base, field) -> (
    match resolve t base with
    | Some (Ctype.Named n) -> (
      match find_type t n with
      | Some td -> (
        match List.assoc_opt field td.td_assoc with
        | Some bound -> resolve t bound
        | None -> None)
      | None -> None)
    | Some _ | None -> None)

(* Transitive refinement: does concept [a] (directly or indirectly) refine
   concept [b]? Reflexive. A root answers from its precomputed closure; an
   overlay walks the refinement edges of the concepts it sees, since a
   local concept may refine a parent's and a parent's edge may name a
   local concept. *)
let refines t a b =
  String.equal a b
  ||
  match t.scope with
  | Root ix -> (
    match Hashtbl.find_opt ix.ix_reachable a with
    | None -> false
    | Some reachable -> Hashtbl.mem reachable b)
  | Overlay _ ->
    let seen = Hashtbl.create 16 in
    let rec reaches c =
      match find_concept t c with
      | None -> false
      | Some con ->
        List.exists
          (fun (y, _) ->
            String.equal y b
            || ((not (Hashtbl.mem seen y))
               && begin
                    Hashtbl.add seen y ();
                    reaches y
                  end))
          con.Concept.refines
    in
    reaches a

(* Refinement depth of a concept: length of the longest refinement chain
   below it. Used for most-refined-wins overload resolution. *)
let refinement_depth t name =
  let rec depth visited c =
    if List.mem c visited then 0
    else
      match find_concept t c with
      | None -> 0
      | Some con ->
        let below =
          List.map (fun (r, _) -> depth (c :: visited) r) con.Concept.refines
        in
        1 + List.fold_left max 0 below
  in
  depth [] name

(* ------------------------------------------------------------------ *)
(* Declarations: always into this layer                                *)
(* ------------------------------------------------------------------ *)

(* Name collisions count across all layers. *)

let declare_concept t (c : Concept.t) =
  let name = c.Concept.name in
  if Option.is_some (find_concept t name) then
    raise (Duplicate ("concept " ^ name));
  t.concepts <- (name, c) :: t.concepts;
  declared t (fun ix -> index_concept ix c)

let declare_type ?(doc = "") ?(assoc = []) t name =
  if Option.is_some (find_type t name) then
    raise (Duplicate ("type " ^ name));
  let td = { td_name = name; td_assoc = assoc; td_doc = doc } in
  t.types <- (name, td) :: t.types;
  declared t (fun ix -> index_type ix (name, td))

(* The extended description goes to the front of this layer's list: in a
   root it replaces the old one, in an overlay it shadows the parent's. *)
let extend_type t name assoc =
  match find_type t name with
  | None -> invalid_arg ("Registry.extend_type: undeclared type " ^ name)
  | Some td ->
    let fresh = List.filter (fun (f, _) -> not (List.mem_assoc f td.td_assoc)) assoc in
    let td = { td with td_assoc = td.td_assoc @ fresh } in
    t.types <- (name, td) :: List.remove_assoc name t.types;
    declared t (fun ix -> index_type ix (name, td))

let declare_op ?(doc = "") t op_name op_params op_return =
  let s = { Concept.op_name; op_params; op_return; op_doc = doc } in
  t.ops <- s :: t.ops;
  declared t (fun ix -> index_op ix s)

let declare_model ?(doc = "") ?(axioms = []) ?(complexity = []) t concept args
    =
  let m =
    {
      mo_concept = concept;
      mo_args = args;
      mo_axioms_asserted = axioms;
      mo_complexity = complexity;
      mo_doc = doc;
    }
  in
  t.models <- m :: t.models;
  declared t (fun ix -> index_model ix m)
