(* Tests for the concept engine: type language, complexity algebra,
   checking, propagation, archetypes, overloading, taxonomies. *)

open Gp_concepts

let n name = Ctype.Named name
let v name = Ctype.Var name

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Ctype                                                               *)
(* ------------------------------------------------------------------ *)

let test_ctype_subst () =
  let t = Ctype.Assoc (v "G", "vertex_type") in
  let s = Ctype.subst [ ("G", n "graph") ] t in
  Alcotest.(check string) "subst resolves var" "graph.vertex_type"
    (Ctype.to_string s);
  Alcotest.(check bool) "ground after subst" true (Ctype.is_ground s)

let test_ctype_vars () =
  let t = Ctype.App ("pair", [ v "A"; Ctype.Assoc (v "B", "elem") ]) in
  Alcotest.(check (list string)) "vars in order" [ "A"; "B" ] (Ctype.vars t)

let test_ctype_equal () =
  let a = Ctype.App ("list", [ n "int" ]) in
  let b = Ctype.App ("list", [ n "int" ]) in
  let c = Ctype.App ("list", [ n "float" ]) in
  Alcotest.(check bool) "equal" true (Ctype.equal a b);
  Alcotest.(check bool) "not equal" false (Ctype.equal a c);
  Alcotest.(check int) "compare equal" 0 (Ctype.compare a b)

(* ------------------------------------------------------------------ *)
(* Complexity                                                          *)
(* ------------------------------------------------------------------ *)

let test_complexity_order () =
  let open Complexity in
  Alcotest.(check bool) "1 <= log n" true (leq constant (log_ "n"));
  Alcotest.(check bool) "log n <= n" true (leq (log_ "n") (linear "n"));
  Alcotest.(check bool) "n <= n log n" true (leq (linear "n") (n_log_n "n"));
  Alcotest.(check bool) "n log n <= n^2" true (leq (n_log_n "n") (quadratic "n"));
  Alcotest.(check bool) "n^2 not <= n log n" false
    (leq (quadratic "n") (n_log_n "n"));
  Alcotest.(check bool) "incomparable n vs m" true
    (compare_growth (linear "n") (linear "m") = None)

let test_complexity_algebra () =
  let open Complexity in
  let nlogn = mul (linear "n") (log_ "n") in
  Alcotest.(check bool) "n * log n = n log n" true (equal nlogn (n_log_n "n"));
  (* O(n) + O(n^2) collapses to O(n^2) *)
  let s = add (linear "n") (quadratic "n") in
  Alcotest.(check bool) "sum absorbs dominated" true (equal s (quadratic "n"));
  (* O(n + m) keeps both *)
  let nm = add (linear "n") (linear "m") in
  Alcotest.(check string) "multi-var sum" "O(n + m)" (to_string nm)

let test_complexity_pp () =
  let open Complexity in
  Alcotest.(check string) "constant" "O(1)" (to_string constant);
  Alcotest.(check string) "n log n" "O(n log n)" (to_string (n_log_n "n"));
  Alcotest.(check string) "n^2" "O(n^2)" (to_string (quadratic "n"))

(* Monomial order in pp/to_string is canonical (descending on sorted
   bindings), so construction order never leaks into a report. *)
let test_complexity_pp_canonical () =
  let open Complexity in
  Alcotest.(check string) "n + m both ways" "O(n + m)"
    (to_string (add (linear "m") (linear "n")));
  Alcotest.(check string) "n + m both ways (2)" "O(n + m)"
    (to_string (add (linear "n") (linear "m")));
  Alcotest.(check string) "higher degree first" "O(n^2 + m)"
    (to_string (add (linear "m") (quadratic "n")));
  Alcotest.(check string) "higher degree first (2)" "O(n^2 + m)"
    (to_string (add (quadratic "n") (linear "m")));
  Alcotest.(check string) "three vars" "O(n log n + m^3 + k)"
    (to_string (add (linear "k") (add (power "m" 3) (n_log_n "n"))))

let test_complexity_eval () =
  let open Complexity in
  let env_n x = function "n" -> x | _ -> 1.0 in
  let check name expect t x =
    Alcotest.(check (float 1e-9)) name expect (eval t ~env:(env_n x))
  in
  check "1 at any n" 1.0 constant 1000.0;
  check "n at 64" 64.0 (linear "n") 64.0;
  check "n^2 at 10" 100.0 (quadratic "n") 10.0;
  check "n^3 at 10" 1000.0 (cubic "n") 10.0;
  check "log2 64" 6.0 (log_ "n") 64.0;
  check "n log n at 64" 384.0 (n_log_n "n") 64.0;
  (* the log factor clamps below 2 instead of hitting log 1 = 0 *)
  check "log at n=1 clamps to 1" 1.0 (log_ "n") 1.0;
  (* add normalizes away dominated terms: n + n^2 collapses to n^2 *)
  check "dominated term dropped before eval" 4096.0
    (add (linear "n") (quadratic "n"))
    64.0;
  (* incomparable terms survive normalization and sum termwise *)
  Alcotest.(check (float 1e-9)) "sum evaluates termwise" (4096.0 +. 5.0)
    (eval
       (add (quadratic "n") (linear "m"))
       ~env:(function "n" -> 64.0 | "m" -> 5.0 | _ -> 1.0));
  let env = function "n" -> 16.0 | "b" -> 9.0 | _ -> 1.0 in
  Alcotest.(check (float 1e-9)) "mixed O(n b)" 144.0
    (eval (mul (linear "n") (linear "b")) ~env);
  Alcotest.(check (float 1e-9)) "O(n + m)" 21.0
    (eval
       (add (linear "n") (linear "m"))
       ~env:(function "n" -> 16.0 | "m" -> 5.0 | _ -> 1.0))

let test_complexity_basis () =
  let open Complexity in
  let pair_list =
    Alcotest.(list (list (triple string int int)))
  in
  Alcotest.(check pair_list) "constant" [ [] ] (basis constant);
  Alcotest.(check pair_list) "n log n" [ [ ("n", 1, 1) ] ] (basis (n_log_n "n"));
  Alcotest.(check pair_list) "n^2 + m, canonical order"
    [ [ ("n", 2, 0) ]; [ ("m", 1, 0) ] ]
    (basis (add (linear "m") (quadratic "n")));
  Alcotest.(check pair_list) "mixed monomial sorts its vars"
    [ [ ("b", 1, 0); ("n", 1, 0) ] ]
    (basis (mul (linear "n") (linear "b")))

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* A tiny world: concept Hashable, type key provides hash. *)
let hashable =
  Concept.make ~params:[ "T" ] "Hashable"
    [ Concept.signature "hash" [ v "T" ] (n "int") ]

let test_check_pass () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "int";
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "int");
  Alcotest.(check bool) "key models Hashable" true
    (Check.models reg "Hashable" [ n "key" ])

let test_check_missing_op () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  let report = Check.check reg "Hashable" [ n "key" ] in
  Alcotest.(check bool) "fails" false (Check.ok report);
  match report.Check.rep_failures with
  | [ Check.Missing_operation { expected } ] ->
    Alcotest.(check string) "names the op" "hash" expected.Concept.op_name
  | _ -> Alcotest.fail "expected a single Missing_operation failure"

let test_check_return_mismatch () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "string");
  let report = Check.check reg "Hashable" [ n "key" ] in
  match report.Check.rep_failures with
  | [ Check.Return_type_mismatch { op; _ } ] ->
    Alcotest.(check string) "op name" "hash" op
  | _ -> Alcotest.fail "expected Return_type_mismatch"

let test_check_refinement_failure_is_structured () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "HashSetElement"
       ~refines:[ ("Hashable", [ v "T" ]) ]
       [ Concept.signature "eq" [ v "T"; v "T" ] (n "bool") ]);
  Registry.declare_type reg "key";
  Registry.declare_op reg "eq" [ n "key"; n "key" ] (n "bool");
  let report = Check.check reg "HashSetElement" [ n "key" ] in
  match report.Check.rep_failures with
  | [ Check.Refinement_failed { concept; causes; _ } ] ->
    Alcotest.(check string) "refined concept" "Hashable" concept;
    Alcotest.(check int) "one cause" 1 (List.length causes)
  | _ -> Alcotest.fail "expected Refinement_failed"

let test_check_assoc_and_same_type () =
  let reg = Registry.create () in
  let cont =
    Concept.make ~params:[ "C" ] "MiniContainer"
      [
        Concept.assoc_type "value_type";
        Concept.assoc_type "iterator"
          ~constraints:
            [
              Concept.Same_type
                ( Ctype.Assoc (Ctype.Assoc (v "C", "iterator"), "value_type"),
                  Ctype.Assoc (v "C", "value_type") );
            ];
      ]
  in
  Registry.declare_concept reg cont;
  Registry.declare_type reg "int";
  Registry.declare_type reg "float";
  Registry.declare_type reg "intvec_iter"
    ~assoc:[ ("value_type", n "int") ];
  Registry.declare_type reg "intvec"
    ~assoc:[ ("value_type", n "int"); ("iterator", n "intvec_iter") ];
  Alcotest.(check bool) "intvec ok" true
    (Check.models reg "MiniContainer" [ n "intvec" ]);
  (* now a broken container whose iterator disagrees on value_type *)
  Registry.declare_type reg "badvec"
    ~assoc:[ ("value_type", n "float"); ("iterator", n "intvec_iter") ];
  let report = Check.check reg "MiniContainer" [ n "badvec" ] in
  Alcotest.(check bool) "badvec rejected" false (Check.ok report)

let test_check_axiom_warnings () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  let report = Check.check reg "Monoid" [ n "float[*]" ] in
  Alcotest.(check bool) "syntactically fine" true (Check.ok report);
  Alcotest.(check bool) "axiom warnings present" true
    (report.Check.rep_warnings <> [])

let test_certified_axiom_clears_warning () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  let args = [ n "int[+]" ] in
  List.iter
    (fun ax -> Check.certify_axiom ~concept:"Semigroup" ~axiom:ax ~args)
    [ "associativity" ];
  let report = Check.check reg "Semigroup" [ n "int[+]" ] in
  Alcotest.(check bool) "ok" true (Check.ok report);
  let still_warned =
    List.exists
      (function
        | Check.Axiom_asserted_not_proved { axiom = "associativity"; _ } ->
          true
        | _ -> false)
      report.Check.rep_warnings
  in
  Alcotest.(check bool) "associativity warning gone" false still_warned

let test_nominal_mode_requires_declaration () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "int");
  (* structurally fine, but no model declared *)
  Alcotest.(check bool) "structural ok" true
    (Check.models ~mode:Check.Structural reg "Hashable" [ n "key" ]);
  Alcotest.(check bool) "nominal rejected" false
    (Check.models ~mode:Check.Nominal reg "Hashable" [ n "key" ]);
  Registry.declare_model reg "Hashable" [ n "key" ];
  Alcotest.(check bool) "nominal ok after declaration" true
    (Check.models ~mode:Check.Nominal reg "Hashable" [ n "key" ])

let test_complexity_guarantee_checked () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "C" ] "FastSize"
       [
         Concept.signature "size" [ v "C" ] (n "int");
         Concept.complexity "size" Complexity.constant;
       ]);
  Registry.declare_type reg "int";
  Registry.declare_type reg "slowlist";
  Registry.declare_op reg "size" [ n "slowlist" ] (n "int");
  Registry.declare_model reg "FastSize" [ n "slowlist" ]
    ~complexity:[ ("size", Complexity.linear "n") ];
  let report = Check.check reg "FastSize" [ n "slowlist" ] in
  let weak =
    List.exists
      (function Check.Complexity_too_weak _ -> true | _ -> false)
      report.Check.rep_failures
  in
  Alcotest.(check bool) "O(n) size rejected against O(1) guarantee" true weak

(* ------------------------------------------------------------------ *)
(* Graph concepts: Figs. 1 and 2                                       *)
(* ------------------------------------------------------------------ *)

let graph_world () =
  let reg = Registry.create () in
  Gp_graph.Decls.declare reg;
  reg

let test_fig1_fig2 () =
  let reg = graph_world () in
  Alcotest.(check bool) "edge models GraphEdge (Fig 1)" true
    (Check.models reg "GraphEdge" [ n "adjacency_list::edge" ]);
  Alcotest.(check bool) "adjacency_list models IncidenceGraph (Fig 2)" true
    (Check.models reg "IncidenceGraph" [ n "adjacency_list" ]);
  Alcotest.(check bool) "adjacency_matrix models AdjacencyMatrixGraph" true
    (Check.models reg "AdjacencyMatrixGraph" [ n "adjacency_matrix" ]);
  Alcotest.(check bool) "adjacency_list does NOT model AdjacencyMatrixGraph"
    false
    (Check.models reg "AdjacencyMatrixGraph" [ n "adjacency_list" ])

let test_fig2_broken_graph () =
  let reg = graph_world () in
  (* a graph whose edge type lacks target() *)
  Registry.declare_type reg "broken::edge"
    ~assoc:[ ("vertex_type", n "vertex") ];
  Registry.declare_op reg "source" [ n "broken::edge" ] (n "vertex");
  Registry.declare_type reg "broken::iter"
    ~assoc:[ ("value_type", n "broken::edge") ];
  Registry.declare_op reg "deref" [ n "broken::iter" ] (n "broken::edge");
  Registry.declare_op reg "succ" [ n "broken::iter" ] (n "broken::iter");
  Registry.declare_op reg "iter_eq" [ n "broken::iter"; n "broken::iter" ]
    (n "bool");
  Registry.declare_type reg "broken"
    ~assoc:
      [ ("vertex_type", n "vertex"); ("edge_type", n "broken::edge");
        ("out_edge_iterator", n "broken::iter") ];
  Registry.declare_op reg "out_edges" [ n "vertex"; n "broken" ]
    (n "broken::iter");
  Registry.declare_op reg "out_degree" [ n "vertex"; n "broken" ] (n "int");
  let report = Check.check reg "IncidenceGraph" [ n "broken" ] in
  Alcotest.(check bool) "broken graph rejected" false (Check.ok report);
  (* the diagnostic names the missing target op, nested in the edge model *)
  let mentions_target = contains (Fmt.str "%a" Check.pp_report report) "target" in
  Alcotest.(check bool) "diagnostic mentions target" true mentions_target

(* ------------------------------------------------------------------ *)
(* Propagation                                                          *)
(* ------------------------------------------------------------------ *)

let test_propagation_closure () =
  let reg = graph_world () in
  let obs = Propagate.closure reg "IncidenceGraph" [ n "adjacency_list" ] in
  (* root + GraphEdge on edge_type + InputIterator on out_edge_iterator *)
  Alcotest.(check bool) "closure has >= 3 obligations" true
    (List.length obs >= 3);
  let has c =
    List.exists (fun ob -> ob.Propagate.ob_concept = c) obs
  in
  Alcotest.(check bool) "includes GraphEdge" true (has "GraphEdge");
  Alcotest.(check bool) "includes InputIterator" true (has "InputIterator")

let test_propagation_idempotent () =
  let reg = graph_world () in
  let size1 = Propagate.explicit_size reg "VertexListGraph" [ n "adjacency_list" ] in
  let size2 = Propagate.explicit_size reg "VertexListGraph" [ n "adjacency_list" ] in
  Alcotest.(check int) "stable" size1 size2;
  Alcotest.(check bool) "propagation saves constraints" true
    (size1 > Propagate.declared_size)

(* The 2^n blowup of Section 2.4: a tower of two-type concepts, each
   refining two instances of the level below. *)
let test_propagation_exponential_tower () =
  let reg = Registry.create () in
  Registry.declare_type reg "a";
  Registry.declare_type reg "b";
  Registry.declare_concept reg
    (Concept.make ~params:[ "V"; "S" ] "Level0" [ Concept.axiom "t" "true" ]);
  let depth = 6 in
  for i = 1 to depth do
    Registry.declare_concept reg
      (Concept.make ~params:[ "V"; "S" ]
         (Printf.sprintf "Level%d" i)
         ~refines:
           [
             (Printf.sprintf "Level%d" (i - 1), [ v "V"; v "S" ]);
             (Printf.sprintf "Level%d" (i - 1), [ v "S"; v "V" ]);
           ]
         [ Concept.axiom "t" "true" ])
  done;
  (* without dedup the closure would be 2^(depth+1)-1; obligations dedup to
     2 per level (V,S and S,V) but the *written-out* form in a language
     without propagation is the full tree. *)
  let obs =
    Propagate.closure ~max_depth:20 reg
      (Printf.sprintf "Level%d" depth)
      [ n "a"; n "b" ]
  in
  Alcotest.(check bool) "closure deduplicates" true (List.length obs <= 2 * (depth + 1));
  Alcotest.(check bool) "more than one obligation" true (List.length obs > depth)

(* ------------------------------------------------------------------ *)
(* Registry lookups and overlays == declaration-log oracles (property) *)
(* ------------------------------------------------------------------ *)

(* Random worlds are lists of .gpc items loaded one at a time through
   Lang.load_items: concepts that refine and require any concept name,
   declared or not (so refinement can cross overlay layers in either
   direction, cycles included), types with associated-type bindings
   (re-declaring one extends it), ops and models. The oracles answer
   every lookup from the accepted items alone, by linear scans of the
   generated declarations, so they share nothing with the registry. *)

let qtest = QCheck_alcotest.to_alcotest

let nconcepts = 8
let ntypes = 5
let cname i = Printf.sprintf "C%d" i
let tyname i = Printf.sprintf "ty%d" i
let cnames = List.init nconcepts cname @ [ "nope" ]
let tynames = List.init ntypes tyname @ [ "nope" ]

let item_gen =
  let open QCheck.Gen in
  let ty = map (fun i -> n (tyname i)) (int_range 0 (ntypes - 1)) in
  let concept_name = map cname (int_range 0 (nconcepts - 1)) in
  let concept =
    concept_name >>= fun name ->
    list_size (int_range 0 2) concept_name >>= fun refs ->
    list_size (int_range 0 1) concept_name >>= fun reqs ->
    bool >>= fun elem ->
    oneofl [ None; Some "f"; Some "g" ] >|= fun op ->
    let t = v "T" in
    let ret = if elem then Ctype.Assoc (t, "elem") else t in
    Lang.Iconcept
      (Concept.make ~params:[ "T" ]
         ~refines:(List.map (fun r -> (r, [ t ])) refs)
         name
         ((Concept.axiom "t" "true"
          :: List.map (fun r -> Concept.Constraint (Concept.Models (r, [ t ]))) reqs)
         @ (if elem then [ Concept.assoc_type "elem" ] else [])
         @ Option.fold ~none:[] ~some:(fun f -> [ Concept.signature f [ t ] ret ]) op))
  in
  let tydecl =
    int_range 0 (ntypes - 1) >>= fun i ->
    list_size (int_range 0 2) (pair (oneofl [ "elem"; "key" ]) ty) >|= fun assoc ->
    Lang.Itype { name = tyname i; assoc }
  in
  let op =
    oneofl [ "f"; "g"; "h" ] >>= fun name ->
    list_size (int_range 0 2) ty >>= fun params ->
    ty >|= fun ret -> Lang.Iop { name; params; ret }
  in
  let model =
    concept_name >>= fun concept ->
    ty >>= fun a ->
    oneofl [ []; [ "t" ] ] >|= fun axioms ->
    Lang.Imodel { concept; args = [ a ]; axioms }
  in
  frequency [ (2, concept); (2, tydecl); (3, op); (2, model) ]

let items_gen = QCheck.Gen.(list_size (int_range 0 16) item_gen)
let world_arb = QCheck.make items_gen
let worlds2_arb = QCheck.make QCheck.Gen.(pair items_gen items_gen)
let worlds3_arb = QCheck.make QCheck.Gen.(triple items_gen items_gen items_gen)

(* The oracles read [log], the accepted items, most recent first. *)

let concept_ref log name =
  List.find_map
    (function
      | Lang.Iconcept c when String.equal c.Concept.name name -> Some c
      | _ -> None)
    log

let type_ref log name =
  List.fold_right
    (fun item td ->
      match item with
      | Lang.Itype { name = m; assoc } when String.equal m name -> (
        match td with
        | None -> Some { Registry.td_name = name; td_assoc = assoc; td_doc = "" }
        | Some td ->
          let bound = td.Registry.td_assoc in
          Some
            { td with
              Registry.td_assoc =
                bound @ List.filter (fun (f, _) -> not (List.mem_assoc f bound)) assoc })
      | _ -> td)
    log None

let args_equal a1 a2 =
  List.length a1 = List.length a2 && List.for_all2 Ctype.equal a1 a2

let model_ref log concept args =
  List.find_map
    (function
      | Lang.Imodel m when String.equal m.concept concept && args_equal m.args args ->
        Some
          { Registry.mo_concept = concept; mo_args = m.args;
            mo_axioms_asserted = m.axioms; mo_complexity = []; mo_doc = "" }
      | _ -> None)
    log

let ops_ref log name params =
  List.filter_map
    (function
      | Lang.Iop o when String.equal o.name name && args_equal o.params params ->
        Some
          { Concept.op_name = name; op_params = o.params; op_return = o.ret;
            op_doc = "" }
      | _ -> None)
    log

let refines_ref log a b =
  let edges =
    List.concat_map
      (function
        | Lang.Iconcept c ->
          List.map (fun (r, _) -> (c.Concept.name, r)) c.Concept.refines
        | _ -> [])
      log
  in
  let rec go visited c =
    String.equal c b
    || (not (List.mem c visited))
       && List.exists
            (fun (x, y) -> String.equal x c && go (c :: visited) y)
            edges
  in
  go [] a

(* Load one item into [reg] and the log. A concept whose name the log
   already holds must raise Duplicate and stay out of both. *)
let load reg log item =
  let duplicate =
    match item with
    | Lang.Iconcept c -> Option.is_some (concept_ref log c.Concept.name)
    | _ -> false
  in
  match Lang.load_items reg [ item ] with
  | () when duplicate -> failwith "a duplicate concept was accepted"
  | () -> item :: log
  | exception Registry.Duplicate _ when duplicate -> log
  | exception Registry.Duplicate what -> failwith ("spurious Duplicate: " ^ what)

let load_all reg log items = List.fold_left (load reg) log items

let probe_ops =
  let tys = List.init ntypes (fun i -> n (tyname i)) in
  List.concat_map
    (fun f ->
      ((f, []) :: List.map (fun a -> (f, [ a ])) tys)
      @ List.concat_map (fun a -> List.map (fun b -> (f, [ a; b ])) tys) tys)
    [ "f"; "g"; "h"; "zz" ]

(* Every lookup against the oracles; a root starts at generation 0 and
   every accepted item bumps it once. *)
let agrees_with_log log reg =
  List.for_all (fun c -> Registry.find_concept reg c = concept_ref log c) cnames
  && List.for_all (fun t -> Registry.find_type reg t = type_ref log t) tynames
  && List.for_all
       (fun c ->
         List.for_all
           (fun t -> Registry.find_model reg c [ n t ] = model_ref log c [ n t ])
           tynames)
       cnames
  && List.for_all
       (fun (f, ps) -> Registry.find_ops reg f ps = ops_ref log f ps)
       probe_ops
  && List.for_all
       (fun a -> List.for_all (fun b -> Registry.refines reg a b = refines_ref log a b) cnames)
       cnames
  && Registry.generation reg = List.length log

(* Everything a registry answers, as one comparable value. *)
let observe reg =
  let projections t =
    [ Ctype.Assoc (n t, "elem"); Ctype.Assoc (n t, "key");
      Ctype.Assoc (Ctype.Assoc (n t, "elem"), "key");
      Ctype.App ("pair", [ n t; Ctype.Assoc (n t, "elem") ]) ]
  in
  ( ( List.map (Registry.find_concept reg) cnames,
      List.map (Registry.find_type reg) tynames,
      List.map (fun c -> List.map (fun t -> Registry.find_model reg c [ n t ]) tynames) cnames,
      List.map (fun (f, ps) -> Registry.find_ops reg f ps) probe_ops ),
    ( List.map (fun a -> List.map (Registry.refines reg a) cnames) cnames,
      List.map (Registry.refinement_depth reg) cnames,
      List.map (fun t -> List.map (Registry.resolve reg) (projections t)) tynames,
      (Registry.generation reg, Registry.concepts reg, Registry.models reg) ) )

(* Rendered Check.check reports in both modes, and closures. *)
let reports reg =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun t ->
          List.map
            (fun mode -> Fmt.str "%a" Check.pp_report (Check.check ~mode reg c [ n t ]))
            [ Check.Structural; Check.Nominal ])
        tynames)
    cnames

let closures reg =
  List.map (fun c -> Propagate.closure reg c [ n (tyname 0) ]) cnames

let closures_agree reg =
  List.for_all
    (fun c ->
      Propagate.closure reg c [ n (tyname 0) ]
      = Propagate.closure_reference reg c [ n (tyname 0) ])
    cnames

let registry_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"indexed registry lookups == list scans (random worlds)"
       ~count:200 worlds2_arb
       (fun (w1, w2) ->
         let reg = Registry.create () in
         ignore
           (List.fold_left
              (fun log item ->
                let log = load reg log item in
                if not (agrees_with_log log reg) then failwith "lookup disagrees";
                log)
              [] (w1 @ w2));
         true))

(* Load [items] one at a time into [scope] and [fresh], which must
   answer alike after every declaration. *)
let load_in_step scope fresh log items =
  List.fold_left
    (fun log item ->
      let log' = load scope log item in
      ignore (load fresh log item);
      if observe scope <> observe fresh then failwith "overlay and fresh registry differ";
      log')
    log items

let overlay_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"overlay == fresh registry with the same items (interleaved)"
       ~count:200 worlds3_arb
       (fun (w1, w2, w3) ->
         let parent = Registry.create () in
         let log = load_all parent [] w1 in
         let parent_before = observe parent in
         let fresh = Registry.create () in
         ignore (load_all fresh [] w1);
         let scope = Registry.overlay parent in
         let log = load_in_step scope fresh log w2 in
         let scope_before = observe scope in
         (* a scope nested in the scope *)
         let inner = Registry.overlay scope in
         let log = load_in_step inner fresh log w3 in
         agrees_with_log log inner
         && reports inner = reports fresh
         && closures inner = closures fresh
         && observe scope = scope_before
         && observe parent = parent_before))

let closure_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"hashed worklist closure == quadratic reference" ~count:200
       worlds2_arb
       (fun (w1, w2) ->
         let reg = Registry.create () in
         let log = load_all reg [] w1 in
         closures_agree reg
         &&
         let scope = Registry.overlay reg in
         ignore (load_all scope log w2);
         closures_agree scope))

(* Telemetry transparency: checking and propagation return the same
   reports/observations with a sink installed (spans + counters
   recorded) as with the default no-op switchboard. *)
let telemetry_transparent_prop =
  qtest
    (QCheck.Test.make
       ~name:"telemetry never changes check/closure results" ~count:100
       world_arb
       (fun w ->
         let reg = Registry.create () in
         ignore (load_all reg [] w);
         let run () =
           List.map
             (fun c ->
               ( Check.check reg c [ n (tyname 0) ],
                 Propagate.closure reg c [ n (tyname 0) ] ))
             cnames
         in
         let off = run () in
         let on = Gp_telemetry.Tel.with_installed (fun _sink -> run ()) in
         off = on))

(* The named overlay cases, on the library worlds. *)

let concept_named name = Concept.make ~params:[ "T" ] name [ Concept.axiom "t" "true" ]

let test_overlay_duplicate_parent_name () =
  let parent = Registry.create () in
  Gp_sequence.Decls.declare parent;
  let g = Registry.generation parent in
  let scope = Registry.overlay parent in
  (match Registry.declare_concept scope (concept_named "ForwardIterator") with
  | () -> Alcotest.fail "a parent's concept name must be a Duplicate"
  | exception Registry.Duplicate what ->
    Alcotest.(check string) "what" "concept ForwardIterator" what);
  (match Registry.declare_type scope "vector<int>" with
  | () -> Alcotest.fail "a parent's type name must be a Duplicate"
  | exception Registry.Duplicate _ -> ());
  Alcotest.(check int) "scope generation unchanged" g (Registry.generation scope);
  Alcotest.(check int) "parent generation unchanged" g (Registry.generation parent)

let test_overlay_shadows_parent_type () =
  let parent = Registry.create () in
  Registry.declare_type parent "x" ~assoc:[ ("elem", n "int") ];
  let g = Registry.generation parent in
  let scope = Registry.overlay parent in
  Lang.load_string scope {|type x { elem = float; key = string; }|};
  let assoc r =
    Option.map (fun td -> td.Registry.td_assoc) (Registry.find_type r "x")
  in
  Alcotest.(check bool) "scope sees the extension, old bindings first" true
    (assoc scope = Some [ ("elem", n "int"); ("key", n "string") ]);
  Alcotest.(check bool) "parent keeps its description" true
    (assoc parent = Some [ ("elem", n "int") ]);
  Alcotest.(check int) "parent generation unchanged" g (Registry.generation parent);
  Alcotest.(check int) "scope generation = parent + 1" (g + 1)
    (Registry.generation scope);
  Alcotest.(check bool) "resolve through the shadow" true
    (Registry.resolve scope (Ctype.Assoc (n "x", "key")) = Some (n "string")
    && Registry.resolve parent (Ctype.Assoc (n "x", "key")) = None)

let test_overlay_refines_across_layers () =
  let parent = Registry.create () in
  Gp_sequence.Decls.declare parent;
  let scope = Registry.overlay parent in
  Registry.declare_concept scope
    (Concept.make ~params:[ "T" ]
       ~refines:[ ("RandomAccessIterator", [ v "T" ]) ]
       "ContiguousIterator" [ Concept.axiom "t" "true" ]);
  Alcotest.(check bool) "local -> parent -> grandparent concept" true
    (Registry.refines scope "ContiguousIterator" "InputIterator");
  Alcotest.(check bool) "invisible from the parent" false
    (Registry.refines parent "ContiguousIterator" "InputIterator");
  Alcotest.(check int) "depth counts the parent chain"
    (1 + Registry.refinement_depth parent "RandomAccessIterator")
    (Registry.refinement_depth scope "ContiguousIterator")

(* Declaring into and querying a scope builds no index: the scope
   reads the parent's, which is the point of sharing the parent. *)
let test_overlay_shares_parent_index () =
  let parent = Registry.create () in
  Gp_sequence.Decls.declare parent;
  let rebuilds =
    Gp_telemetry.Tel.with_installed (fun sink ->
        for i = 1 to 20 do
          let scope = Registry.overlay parent in
          Lang.load_string scope
            (Printf.sprintf
               "concept Local%d<T> refines ForwardIterator<T> { }\n\
                type \"vector<int>::iterator\" { tag%d = int; }\n\
                model Local%d<\"vector<int>::iterator\">;"
               i i i);
          ignore
            (Check.check scope (Printf.sprintf "Local%d" i)
               [ n "vector<int>::iterator" ])
        done;
        Gp_telemetry.Metrics.total sink.Gp_telemetry.Tel.metrics
          "gp_registry_index_rebuilds_total")
  in
  Alcotest.(check (float 0.0)) "no index rebuilds" 0.0 rebuilds

(* ------------------------------------------------------------------ *)
(* Archetypes                                                          *)
(* ------------------------------------------------------------------ *)

let test_archetype_models_its_concept () =
  let reg = graph_world () in
  let inst = Archetype.instantiate reg "IncidenceGraph" in
  Alcotest.(check bool) "archetype models IncidenceGraph" true
    (Check.models reg "IncidenceGraph" inst.Archetype.arch_args)

let test_archetype_minimal () =
  let reg = graph_world () in
  let inst = Archetype.instantiate reg "GraphEdge" in
  (* the GraphEdge archetype must NOT model IncidenceGraph *)
  Alcotest.(check bool) "GraphEdge archetype lacks IncidenceGraph" false
    (Check.models reg "IncidenceGraph" inst.Archetype.arch_args)

let test_archetype_implies () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  Alcotest.(check bool) "RandomAccess implies Forward" true
    (Archetype.implies reg ~declared:"RandomAccessIterator"
       ~used:"ForwardIterator");
  Alcotest.(check bool) "Input does not imply Forward" false
    (Archetype.implies reg ~declared:"InputIterator" ~used:"ForwardIterator")

(* ------------------------------------------------------------------ *)
(* Overloading                                                          *)
(* ------------------------------------------------------------------ *)

let test_overload_most_refined_wins () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  let res = Overload.resolve reg g [ n "vector<int>::iterator" ] in
  (match res with
  | Overload.Selected (c, losers) ->
    Alcotest.(check string) "picks introsort" "introsort (random access)"
      c.Overload.cand_name;
    Alcotest.(check int) "forward candidate also matched" 1
      (List.length losers)
  | _ -> Alcotest.fail "expected Selected");
  let res = Overload.resolve reg g [ n "list<int>::iterator" ] in
  match res with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "picks mergesort for list"
      "mergesort (forward)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected for list"

let test_overload_no_match_reports () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  match Overload.resolve reg g [ n "istream<int>::iterator" ] with
  | Overload.No_match reports ->
    Alcotest.(check int) "both candidates reported" 2 (List.length reports)
  | _ -> Alcotest.fail "input iterator must not satisfy sort"

let test_overload_ambiguity_detected () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "A" [ Concept.axiom "t" "true" ]);
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "B" [ Concept.axiom "t" "true" ]);
  Registry.declare_type reg "x";
  Registry.declare_model reg "A" [ n "x" ];
  Registry.declare_model reg "B" [ n "x" ];
  let g = Overload.create "f" in
  Overload.add_candidate g ~name:"via A" ~guard:"A" (fun _ -> Overload.Unit);
  Overload.add_candidate g ~name:"via B" ~guard:"B" (fun _ -> Overload.Unit);
  match Overload.resolve reg g [ n "x" ] with
  | Overload.Ambiguous cs -> Alcotest.(check int) "two" 2 (List.length cs)
  | _ -> Alcotest.fail "expected ambiguity between unrelated concepts"

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let mini_taxonomy () =
  let t = Taxonomy.create "sorting" in
  Taxonomy.add_node t "sort" ~attributes:[ ("problem", "sorting") ];
  Taxonomy.add_node t "comparison_sort" ~parents:[ "sort" ]
    ~attributes:[ ("method", "comparison") ];
  Taxonomy.add_node t "ra_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "random") ];
  Taxonomy.add_node t "fwd_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "forward") ];
  Taxonomy.add_entry t ~name:"introsort" ~node:"ra_sort"
    ~costs:[ ("comparisons", Complexity.n_log_n "n") ];
  Taxonomy.add_entry t ~name:"mergesort" ~node:"fwd_sort"
    ~costs:[ ("comparisons", Complexity.n_log_n "n") ];
  Taxonomy.add_entry t ~name:"bubblesort" ~node:"ra_sort"
    ~costs:[ ("comparisons", Complexity.quadratic "n") ];
  t

let test_taxonomy_refines_and_attributes () =
  let t = mini_taxonomy () in
  Alcotest.(check bool) "ra refines sort" true
    (Taxonomy.refines t "ra_sort" "sort");
  Alcotest.(check bool) "sort not refines ra" false
    (Taxonomy.refines t "sort" "ra_sort");
  let attrs = Taxonomy.attributes t "ra_sort" in
  Alcotest.(check (option string)) "inherits problem" (Some "sorting")
    (List.assoc_opt "problem" attrs);
  Alcotest.(check (option string)) "own access" (Some "random")
    (List.assoc_opt "access" attrs)

let test_taxonomy_pick () =
  let t = mini_taxonomy () in
  let best =
    Taxonomy.pick t
      ~requirements:[ ("access", "random") ]
      ~measure:"comparisons"
  in
  Alcotest.(check (list string)) "picks introsort over bubblesort"
    [ "introsort" ]
    (List.map (fun e -> e.Taxonomy.en_name) best)

let test_taxonomy_gaps () =
  let t = mini_taxonomy () in
  Taxonomy.add_node t "parallel_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "parallel") ];
  let gaps = Taxonomy.gaps t in
  Alcotest.(check (list string)) "parallel_sort is a gap" [ "parallel_sort" ]
    gaps

(* Mutually recursive concepts (Container <-> Iterator style) must not
   loop the checker; the visited set assumes on cycles. *)
let test_cyclic_concepts () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "C" ] "Cont"
       [
         Concept.assoc_type "iter"
           ~constraints:
             [ Concept.Models ("It", [ Ctype.Assoc (v "C", "iter") ]) ];
       ]);
  Registry.declare_concept reg
    (Concept.make ~params:[ "I" ] "It"
       [
         Concept.assoc_type "owner"
           ~constraints:
             [ Concept.Models ("Cont", [ Ctype.Assoc (v "I", "owner") ]) ];
       ]);
  Registry.declare_type reg "c" ~assoc:[ ("iter", n "i") ];
  Registry.declare_type reg "i" ~assoc:[ ("owner", n "c") ];
  Alcotest.(check bool) "cyclic check terminates and passes" true
    (Check.models reg "Cont" [ n "c" ]);
  (* and the propagation closure terminates (bounded by max_depth, since
     each level names a syntactically new projection chain) *)
  let obs = Propagate.closure ~max_depth:8 reg "Cont" [ n "c" ] in
  Alcotest.(check bool) "finite closure" true (List.length obs <= 2 * 9)

(* ------------------------------------------------------------------ *)
(* Emulation translation (Section 2.2)                                 *)
(* ------------------------------------------------------------------ *)

let test_emulation_flattens_incidence_graph () =
  let reg = graph_world () in
  let con = Option.get (Registry.find_concept reg "IncidenceGraph") in
  let flat = Emulation.translate reg con in
  (* Graph + Vertex + Edge + OutEdgeIter: the paper's flattened form *)
  Alcotest.(check int) "four parameters" 4 (List.length flat.Emulation.fi_params);
  Alcotest.(check bool) "includes Vertex param" true
    (List.mem "Vertex" flat.Emulation.fi_params);
  Alcotest.(check bool) "includes Edge param" true
    (List.mem "Edge" flat.Emulation.fi_params);
  (* the where clauses restate the nested model constraints *)
  Alcotest.(check bool) "where clause mentions GraphEdge" true
    (List.exists (fun w -> contains w "GraphEdge") flat.Emulation.fi_where);
  (* signatures now reference the parameters, not projections *)
  let rendered = Fmt.str "%a" Emulation.pp flat in
  Alcotest.(check bool) "no projections left in out_edges" false
    (contains rendered "Graph.vertex_type")

let test_emulation_blowup () =
  let reg = graph_world () in
  let con = Option.get (Registry.find_concept reg "IncidenceGraph") in
  let original, flattened = Emulation.blowup reg con in
  Alcotest.(check int) "original 1" 1 original;
  Alcotest.(check bool) "more than doubled (paper's study)" true
    (flattened > 2 * original)

(* ------------------------------------------------------------------ *)
(* Overload ablation                                                   *)
(* ------------------------------------------------------------------ *)

let test_first_match_is_worse () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  let args = [ n "vector<int>::iterator" ] in
  (match Overload.resolve reg g args with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "ranked picks introsort"
      "introsort (random access)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected");
  match Overload.resolve_first_match reg g args with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "first-match picks the general candidate"
      "mergesort (forward)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected (first match)"

(* ------------------------------------------------------------------ *)
(* Complexity algebra laws                                             *)
(* ------------------------------------------------------------------ *)

(* Bounds form an idempotent commutative semiring under (add, mul) with
   absorption tying add to the leq order; random monomial sums probe the
   laws the hand-picked algebra cases above cannot. *)
let complexity_arb =
  let open QCheck in
  let monomial =
    map
      (fun (v, p, l) ->
        if p = 0 && l = 0 then Complexity.constant
        else Complexity.poly_log v ~poly:p ~log:l)
      (triple (oneofl [ "n"; "m"; "k" ]) (int_range 0 3) (int_range 0 2))
  in
  set_print Complexity.to_string
    (map
       (fun ms -> List.fold_left Complexity.add Complexity.constant ms)
       (list_of_size Gen.(1 -- 3) monomial))

let complexity_law3 name law =
  QCheck.Test.make ~count:500 ~name
    (QCheck.triple complexity_arb complexity_arb complexity_arb)
    (fun (a, b, c) -> law a b c)

let complexity_laws =
  let open Complexity in
  [ complexity_law3 "add commutative" (fun a b _ ->
        equal (add a b) (add b a));
    complexity_law3 "add associative" (fun a b c ->
        equal (add a (add b c)) (add (add a b) c));
    complexity_law3 "add idempotent" (fun a _ _ -> equal (add a a) a);
    complexity_law3 "absorption: leq a b means a+b = b" (fun a b _ ->
        QCheck.assume (leq a b);
        equal (add a b) b);
    complexity_law3 "a leq a+b" (fun a b _ -> leq a (add a b));
    complexity_law3 "mul commutative" (fun a b _ ->
        equal (mul a b) (mul b a));
    complexity_law3 "mul associative" (fun a b c ->
        equal (mul a (mul b c)) (mul (mul a b) c));
    complexity_law3 "mul distributes over add" (fun a b c ->
        equal (mul a (add b c)) (add (mul a b) (mul a c))) ]

(* leq is a partial order (up to equal) and compare_growth is its
   packaging — the properties the complexity-verification harness's
   verdicts lean on. *)
let complexity_order_laws =
  let open Complexity in
  [ complexity_law3 "leq reflexive" (fun a _ _ -> leq a a);
    complexity_law3 "leq transitive" (fun a b c ->
        QCheck.assume (leq a b && leq b c);
        leq a c);
    complexity_law3 "leq antisymmetric up to equal" (fun a b _ ->
        QCheck.assume (leq a b && leq b a);
        equal a b);
    complexity_law3 "compare_growth consistent with leq" (fun a b _ ->
        match compare_growth a b with
        | Some 0 -> leq a b && leq b a
        | Some (-1) -> leq a b && not (leq b a)
        | Some 1 -> leq b a && not (leq a b)
        | Some _ -> false
        | None -> (not (leq a b)) && not (leq b a));
    complexity_law3 "equal bounds print identically" (fun a b _ ->
        QCheck.assume (equal a b);
        String.equal (to_string a) (to_string b));
    (* eval respects the order pointwise once sizes are >= 2 (below 2
       the log clamp flattens log factors on purpose) *)
    complexity_law3 "leq implies pointwise eval <= at size 64" (fun a b _ ->
        QCheck.assume (leq a b);
        let env _ = 64.0 in
        eval a ~env <= (3.0 *. eval b ~env)) ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Direct writers: Ctype text and check reports without Format        *)
(* ------------------------------------------------------------------ *)

(* Types over identifier names, so that printing is injective. *)
let ctype_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "int"; "elem" ] in
  sized_size (int_range 0 3)
  @@ fix (fun self d ->
         if d = 0 then oneof [ map n name; map v name ]
         else
           frequency
             [ (2, map n name); (1, map v name);
               (2, map2 (fun t f -> Ctype.Assoc (t, f)) (self (d - 1)) name);
               ( 3,
                 map2
                   (fun f args -> Ctype.App (f, args))
                   (oneofl [ "pair"; "list" ])
                   (list_size (int_range 0 3) (self (d - 1))) ) ])

let ctype_arb = QCheck.make ~print:Ctype.to_string ctype_gen

let ctype_text_equal_prop =
  qtest
    (QCheck.Test.make ~name:"Ctype.to_string equal <=> Ctype.equal"
       ~count:1000
       (QCheck.pair ctype_arb ctype_arb)
       (fun (a, b) ->
         Bool.equal
           (String.equal (Ctype.to_string a) (Ctype.to_string b))
           (Ctype.equal a b)
         && String.equal (Ctype.to_string a) (Ctype.to_string (Ctype.subst [] a))))

(* Laid out on one line: in a horizontal box every break is a space.
   (Bare [Fmt.str "%a" Ctype.pp] breaks the line at an argument
   separator whose size Format has not yet measured when it flushes.) *)
let ctype_text_is_pp_prop =
  qtest
    (QCheck.Test.make ~name:"Ctype.to_string = Fmt.str pp on one-line types"
       ~count:1000 ctype_arb (fun t ->
         String.equal (Fmt.str "%a" (Fmt.hbox Ctype.pp) t) (Ctype.to_string t)))

let written r =
  let buf = Buffer.create 128 in
  Check.add_report buf r;
  Buffer.contents buf

let check_written r =
  let expected = Fmt.str "%a" Check.pp_report r in
  if not (String.equal expected (written r)) then
    QCheck.Test.fail_reportf "pp_report:@.%s@.add_report:@.%s" expected
      (written r);
  true

(* Every type name the standard world's models mention, closed under
   associated-type bindings, and one name nothing declares. *)
let standard_type_names reg =
  let seen = Hashtbl.create 64 in
  let rec visit = function
    | Ctype.Named name when not (Hashtbl.mem seen name) ->
      Hashtbl.add seen name ();
      Option.iter
        (fun td -> List.iter (fun (_, t) -> visit t) td.Registry.td_assoc)
        (Registry.find_type reg name)
    | Ctype.Named _ | Ctype.Var _ -> ()
    | Ctype.Assoc (t, _) -> visit t
    | Ctype.App (_, args) -> List.iter visit args
  in
  List.iter (fun m -> List.iter visit m.Registry.mo_args) (Registry.models reg);
  "no_such_type"
  :: List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

(* Exhaustive over the standard world: each concept against every
   tuple of type names of its arity, in both modes. *)
let test_report_writer_standard_world () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  Gp_sequence.Decls.declare reg;
  Gp_graph.Decls.declare reg;
  Gp_linalg.Decls.declare reg;
  Gp_structla.Decls.declare reg;
  let names = List.map n (standard_type_names reg) in
  Alcotest.(check bool) "the world names types" true (List.length names > 40);
  let rec tuples k =
    if k = 0 then [ [] ]
    else List.concat_map (fun t -> List.map (fun rest -> t :: rest) (tuples (k - 1))) names
  in
  let failing = ref 0 and multi = ref 0 in
  List.iter
    (fun (c : Concept.t) ->
      List.iter
        (fun args ->
          List.iter
            (fun mode ->
              let r = Check.check ~mode reg c.Concept.name args in
              if not (Check.ok r) then incr failing;
              if List.length args > 1 then incr multi;
              Alcotest.(check string)
                (Printf.sprintf "%s<%s>" c.Concept.name
                   (String.concat "," (List.map Ctype.to_string args)))
                (Fmt.str "%a" Check.pp_report r) (written r))
            [ Check.Structural; Check.Nominal ])
        (tuples (List.length c.Concept.params)))
    (Registry.concepts reg);
  Alcotest.(check bool) "failing and multi-argument reports covered" true
    (!failing > 0 && !multi > 0)

(* Random worlds built to reach the checker's failures: one- and
   two-parameter concepts refining and requiring each other (undeclared
   and wrong-arity names included), associated types, same-type
   constraints, operations over [pair<_, _>], axioms and complexity
   guarantees; models asserting axioms or declaring a complexity. *)
let rcnames = [ "D0"; "D1"; "D2"; "D3"; "nope" ]
let rtynames = [ "a"; "b"; "c" ]

let report_world_gen =
  let open QCheck.Gen in
  let t = v "T" and u = v "U" in
  let ground = map n (oneofl rtynames) in
  let concept =
    int_range 0 3 >>= fun i ->
    oneofl [ [ "T" ]; [ "T"; "U" ] ] >>= fun params ->
    let tvars = if List.length params = 2 then [ t; u ] else [ t ] in
    let arg =
      oneof
        [ oneofl tvars; ground;
          map (fun x -> Ctype.App ("pair", [ t; x ])) (oneofl (u :: tvars));
          return (Ctype.Assoc (t, "elem")) ]
    in
    (* The checker guards cycles only along the current path, so D_i
       refines and requires only D_j with j < i (and the undeclared
       "nope"), with arguments from a finite set: the search stays small
       and always ends. *)
    let below = oneofl ("nope" :: List.filteri (fun j _ -> j < i) rcnames) in
    let args = list_size (int_range 1 2) (oneof [ oneofl tvars; ground ]) in
    list_size (int_range 0 1) (pair below args) >>= fun refines ->
    list_size (int_range 0 3)
      (oneof
         [ map2 (fun c a -> Concept.Constraint (Concept.Models (c, a)))
             below args;
           map (fun x -> Concept.Constraint (Concept.Same_type (Ctype.Assoc (t, "elem"), x))) arg;
           map (fun f -> Concept.assoc_type f) (oneofl [ "elem"; "key" ]);
           map
             (fun c -> Concept.assoc_type "elem" ~constraints:[ Concept.Models (c, [ Ctype.Assoc (t, "elem") ]) ])
             below;
           map3 (fun f ps r -> Concept.signature f ps r) (oneofl [ "f"; "g" ])
             (list_size (int_range 0 2) arg) arg;
           return (Concept.signature "h" [ Ctype.Assoc (t, "missing") ] t);
           return (Concept.axiom "ax" "true");
           map (fun b -> Concept.complexity "f" b)
             (oneofl [ Complexity.constant; Complexity.linear "n" ]) ])
    >|= fun reqs ->
    Lang.Iconcept (Concept.make ~params ~refines (List.nth rcnames i) reqs)
  in
  let tydecl =
    oneofl rtynames >>= fun name ->
    list_size (int_range 0 2)
      (pair (oneofl [ "elem"; "key" ])
         (oneof [ ground; map (fun g -> Ctype.App ("pair", [ g; g ])) ground ]))
    >|= fun assoc -> Lang.Itype { name; assoc }
  in
  let ty = oneof [ ground; map2 (fun x y -> Ctype.App ("pair", [ x; y ])) ground ground ] in
  let op =
    oneofl [ "f"; "g"; "h" ] >>= fun name ->
    list_size (int_range 0 2) ty >>= fun params ->
    ty >|= fun ret -> Lang.Iop { name; params; ret }
  in
  let model =
    oneofl rcnames >>= fun concept ->
    list_size (int_range 1 2) ground >>= fun args ->
    oneofl [ []; [ "ax" ] ] >|= fun axioms ->
    Lang.Imodel { concept; args; axioms }
  in
  let items = list_size (int_range 2 20) (frequency [ (3, concept); (2, tydecl); (3, op); (2, model) ]) in
  let complexity_models =
    list_size (int_range 0 2)
      (triple (oneofl rcnames) (list_size (int_range 1 2) ground)
         (oneofl [ Complexity.constant; Complexity.quadratic "n" ]))
  in
  pair items complexity_models

let load_report_world (items, complexity_models) =
  let reg = Registry.create () in
  List.iter
    (fun item ->
      try Lang.load_items reg [ item ] with Registry.Duplicate _ -> ())
    items;
  List.iter
    (fun (c, args, bound) ->
      Registry.declare_model reg ~complexity:[ ("f", bound) ] c args)
    complexity_models;
  reg

let report_world_args =
  let g = List.map n rtynames in
  List.map (fun x -> [ x ]) g
  @ List.concat_map (fun x -> List.map (fun y -> [ x; y ]) g) g
  @ [ [ Ctype.App ("pair", [ n "a"; n "b" ]) ];
      [ Ctype.App ("pair", [ n "a"; n "b" ]); n "c" ] ]

let report_world_reports reg =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun args ->
          List.map
            (fun mode -> Check.check ~mode reg c args)
            [ Check.Structural; Check.Nominal ])
        report_world_args)
    rcnames

let report_world_arb =
  QCheck.make
    ~print:(fun (items, _) ->
      String.concat "\n"
        (List.map
           (function
             | Lang.Iconcept c -> Lang.to_source c
             | Lang.Itype { name; _ } -> "type " ^ name
             | Lang.Iop { name; _ } -> "op " ^ name
             | Lang.Imodel { concept; _ } -> "model " ^ concept)
           items))
    report_world_gen

let report_writer_world_prop =
  qtest
    (QCheck.Test.make ~name:"add_report = Fmt.str pp_report (random worlds)"
       ~count:300 report_world_arb (fun w ->
         List.for_all check_written (report_world_reports (load_report_world w))))

let failure_name = function
  | Check.Unknown_concept _ -> "Unknown_concept"
  | Check.Unknown_type _ -> "Unknown_type"
  | Check.Arity_mismatch _ -> "Arity_mismatch"
  | Check.Unresolved_type _ -> "Unresolved_type"
  | Check.Missing_assoc_type _ -> "Missing_assoc_type"
  | Check.Missing_operation _ -> "Missing_operation"
  | Check.Return_type_mismatch _ -> "Return_type_mismatch"
  | Check.Same_type_violated _ -> "Same_type_violated"
  | Check.Refinement_failed _ -> "Refinement_failed"
  | Check.Nested_model_failed _ -> "Nested_model_failed"
  | Check.Complexity_too_weak _ -> "Complexity_too_weak"
  | Check.No_model_declared _ -> "No_model_declared"

let rec failure_depth = function
  | Check.Refinement_failed { causes; _ } | Check.Nested_model_failed { causes; _ } ->
    1 + List.fold_left (fun d f -> Int.max d (failure_depth f)) 0 causes
  | _ -> 0

(* The generator's reach, checked on a fixed sample: every failure the
   checker can produce shows up, nested at least two deep, with a
   two-argument [pair<_, _>] inside a report. Unknown_type is never
   produced by the checker; the failure-tree property below covers it. *)
let test_report_worlds_reach_every_failure () =
  let rand = Random.State.make [| 2004 |] in
  let seen = Hashtbl.create 16 and deepest = ref 0 and pair_args = ref false in
  for _ = 1 to 300 do
    List.iter
      (fun r ->
        let rec visit f =
          Hashtbl.replace seen (failure_name f) ();
          match f with
          | Check.Refinement_failed { causes; _ } | Check.Nested_model_failed { causes; _ } ->
            List.iter visit causes
          | _ -> ()
        in
        List.iter visit r.Check.rep_failures;
        List.iter (fun f -> deepest := Int.max !deepest (failure_depth f)) r.Check.rep_failures;
        if contains (written r) "pair<" && contains (written r) ",\n" then pair_args := true)
      (report_world_reports (load_report_world (report_world_gen rand)))
  done;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("reaches " ^ name) true (Hashtbl.mem seen name))
    [ "Unknown_concept"; "Arity_mismatch"; "Unresolved_type";
      "Missing_assoc_type"; "Missing_operation"; "Return_type_mismatch";
      "Same_type_violated"; "Refinement_failed"; "Nested_model_failed";
      "Complexity_too_weak"; "No_model_declared" ];
  Alcotest.(check bool) "nested at least two deep" true (!deepest >= 2);
  Alcotest.(check bool) "a pair argument breaks inside a box" true !pair_args

(* Failure trees built directly: every constructor, and spines deep
   enough that Format's indentation cap (column 68) is reached. *)
let failure_gen =
  let open QCheck.Gen in
  let ty = ctype_gen in
  let name = oneofl [ "C"; "Monoid"; "f" ] in
  let leaf =
    oneof
      [ map (fun c -> Check.Unknown_concept c) name;
        map (fun t -> Check.Unknown_type t) ty;
        map2 (fun e g -> Check.Arity_mismatch { concept = "C"; expected = e; got = g })
          small_nat small_nat;
        map (fun t -> Check.Unresolved_type { ty = t; context = "return of f" }) ty;
        map (fun t -> Check.Missing_assoc_type { ty = t; assoc = "elem" }) ty;
        map2
          (fun ps r ->
            Check.Missing_operation
              { expected = { Concept.op_name = "f"; op_params = ps; op_return = r; op_doc = "" } })
          (list_size (int_range 0 3) ty) ty;
        map2 (fun e f -> Check.Return_type_mismatch { op = "f"; expected = e; found = f }) ty ty;
        map2 (fun l r -> Check.Same_type_violated { left = l; right = r }) ty ty;
        return
          (Check.Complexity_too_weak
             { op = "f"; required = Complexity.constant; declared = Complexity.n_log_n "n" });
        map (fun args -> Check.No_model_declared { concept = "C"; args }) (list_size (int_range 0 3) ty) ]
  in
  let node self =
    map3
      (fun refine args causes ->
        if refine then Check.Refinement_failed { concept = "C"; args; causes }
        else Check.Nested_model_failed { concept = "D"; args; causes })
      bool (list_size (int_range 0 3) ty) self
  in
  let tree =
    sized_size (int_range 0 4)
    @@ fix (fun self d ->
           if d = 0 then leaf
           else frequency [ (2, leaf); (3, node (list_size (int_range 1 3) (self (d - 1)))) ])
  in
  let rec spine d = if d = 0 then map (fun f -> [ f ]) tree else node (spine (d - 1)) >|= fun f -> [ f ] in
  frequency [ (4, list_size (int_range 1 3) tree); (1, int_range 30 40 >>= spine) ]

let report_of_failures_arb =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun args failures ->
          { Check.rep_concept = "C"; rep_args = args; rep_failures = failures;
            rep_warnings = [] })
        (list_size (int_range 0 3) ctype_gen)
        failure_gen)

let report_writer_tree_prop =
  qtest
    (QCheck.Test.make ~name:"add_report = Fmt.str pp_report (failure trees)"
       ~count:500 report_of_failures_arb check_written)


(* The verdict memo. A script over one random world interleaves
   queries (each asked twice, so the second is a hit unless something
   changed), declarations of a second world's items into the root, and
   axiom certifications; every memoized report must equal a fresh
   check's, structurally and as written text. Certifications are
   process-wide and never withdrawn, so each case also declares a
   concept "M" under a name of its own, whose axiom no earlier case can
   have certified. *)
type memo_step =
  | Query of string * Ctype.t list * Check.mode
  | Declare of Lang.item
  | Certify of string * Ctype.t list

let memo_script_gen =
  let open QCheck.Gen in
  let args = oneofl (List.filteri (fun i _ -> i < 6) report_world_args) in
  report_world_gen >>= fun world ->
  report_world_gen >>= fun (later, _) ->
  list_size (int_range 10 40)
    (frequency
       [ (6, map3 (fun c a m -> Query (c, a, m)) (oneofl ("M" :: rcnames))
                args (oneofl [ Check.Structural; Check.Nominal ]));
         (1, map (fun i -> Declare i) (oneofl later));
         (1, map2 (fun c a -> Certify (c, a)) (oneofl ("M" :: rcnames)) args) ])
  >|= fun steps -> (world, steps)

let memo_cases = ref 0

let memo_equiv_prop =
  qtest
    (QCheck.Test.make ~name:"memoized check = fresh check" ~count:200
       (QCheck.make memo_script_gen) (fun (world, steps) ->
         let reg = load_report_world world in
         incr memo_cases;
         let m = "M" ^ string_of_int !memo_cases in
         Registry.declare_concept reg
           (Concept.make ~params:[ "T" ] m [ Concept.axiom "ax" "true" ]);
         let name c = if c = "M" then m else c in
         let memo = Check.memo () in
         List.for_all
           (function
             | Declare item ->
               (try Lang.load_items reg [ item ] with Registry.Duplicate _ -> ());
               true
             | Certify (concept, args) ->
               Check.certify_axiom ~concept:(name concept) ~axiom:"ax" ~args;
               true
             | Query (c, args, mode) ->
               let c = name c in
               let fresh = Check.check ~mode reg c args in
               List.for_all
                 (fun r -> r = fresh && written r = written fresh)
                 [ Check.check ~mode ~memo reg c args;
                   Check.check ~mode ~memo reg c args ])
           steps))

(* Overload resolution through the memo: the same script, each query
   now resolving a generic whose candidates are guarded by the world's
   concepts (a guard may repeat, or name no concept) on every argument
   list the script draws from. Winners and losers
   compare by name; a miss or an ambiguity by its printed text, with a
   miss's per-candidate reports as written text too. *)
let resolution_view r =
  let name c = c.Overload.cand_name in
  match r with
  | Overload.Selected (w, losers) -> "selected" :: name w :: List.map name losers
  | Overload.Ambiguous _ -> [ Fmt.str "%a" Overload.pp_resolution r ]
  | Overload.No_match reports ->
    Fmt.str "%a" Overload.pp_resolution r
    :: List.map (fun (c, rep) -> c ^ ": " ^ written rep) reports

let query_args = List.filteri (fun i _ -> i < 6) report_world_args

let resolve_script_gen =
  QCheck.Gen.(pair memo_script_gen (list_size (int_range 1 4) (oneofl ("M" :: rcnames))))

let resolve_memo_prop =
  qtest
    (QCheck.Test.make ~name:"memoized resolve = fresh resolve" ~count:200
       (QCheck.make resolve_script_gen) (fun ((world, steps), guards) ->
         let reg = load_report_world world in
         incr memo_cases;
         let m = "M" ^ string_of_int !memo_cases in
         Registry.declare_concept reg
           (Concept.make ~params:[ "T" ] m [ Concept.axiom "ax" "true" ]);
         let name c = if c = "M" then m else c in
         let g = Overload.create "g" in
         List.iteri
           (fun i c ->
             Overload.add_candidate g ~name:("g" ^ string_of_int i)
               ~guard:(name c) (fun _ -> Overload.Unit))
           guards;
         let memo = Check.memo () in
         List.for_all
           (function
             | Declare item ->
               (try Lang.load_items reg [ item ] with Registry.Duplicate _ -> ());
               true
             | Certify (concept, args) ->
               Check.certify_axiom ~concept:(name concept) ~axiom:"ax" ~args;
               true
             | Query (_, _, mode) ->
               (* every argument list, so a verdict remembered before a
                  later step is asked for again after it *)
               List.for_all
                 (fun args ->
                   let fresh =
                     resolution_view (Overload.resolve ~mode reg g args)
                   in
                   List.for_all
                     (fun r -> resolution_view r = fresh)
                     [ Overload.resolve ~mode ~memo reg g args;
                       Overload.resolve ~mode ~memo reg g args ])
                 query_args)
           steps))

let test_memo_hit_is_same_report () =
  let reg = Registry.create () in
  Lang.load_string reg {|concept C<T> { axiom ax : "true"; }|};
  let memo = Check.memo () in
  let r = Check.check ~memo reg "C" [ n "t" ] in
  Alcotest.(check bool) "hit returns the remembered report" true
    (Check.check ~memo reg "C" [ n "t" ] == r);
  Alcotest.(check bool) "another registry is another world" false
    (Check.check ~memo (Registry.create ()) "C" [ n "t" ] == r);
  Alcotest.(check int) "and empties the memo first" 1 (Check.memo_size memo)

let test_memo_bounded () =
  let reg = Registry.create () in
  Lang.load_string reg "concept C<T> { }";
  let memo = Check.memo () in
  for i = 1 to 10_000 do
    ignore (Check.check ~memo reg "C" [ n ("unknown" ^ string_of_int i) ]);
    if Check.memo_size memo > Check.memo_limit then
      Alcotest.failf "memo holds %d verdicts" (Check.memo_size memo)
  done;
  Alcotest.(check bool) "still remembering" true (Check.memo_size memo > 0)

let () =
  Alcotest.run "gp_concepts"
    [
      ( "ctype",
        [
          Alcotest.test_case "subst" `Quick test_ctype_subst;
          Alcotest.test_case "vars" `Quick test_ctype_vars;
          Alcotest.test_case "equal" `Quick test_ctype_equal;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "order" `Quick test_complexity_order;
          Alcotest.test_case "algebra" `Quick test_complexity_algebra;
          Alcotest.test_case "pp" `Quick test_complexity_pp;
          Alcotest.test_case "pp canonical order" `Quick
            test_complexity_pp_canonical;
          Alcotest.test_case "eval" `Quick test_complexity_eval;
          Alcotest.test_case "basis" `Quick test_complexity_basis;
        ]
        @ List.map qtest complexity_laws
        @ List.map qtest complexity_order_laws );
      ( "check",
        [
          Alcotest.test_case "pass" `Quick test_check_pass;
          Alcotest.test_case "missing op" `Quick test_check_missing_op;
          Alcotest.test_case "return mismatch" `Quick
            test_check_return_mismatch;
          Alcotest.test_case "refinement failure" `Quick
            test_check_refinement_failure_is_structured;
          Alcotest.test_case "assoc + same-type" `Quick
            test_check_assoc_and_same_type;
          Alcotest.test_case "axiom warnings" `Quick test_check_axiom_warnings;
          Alcotest.test_case "certified axiom" `Quick
            test_certified_axiom_clears_warning;
          Alcotest.test_case "nominal mode" `Quick
            test_nominal_mode_requires_declaration;
          Alcotest.test_case "complexity guarantee" `Quick
            test_complexity_guarantee_checked;
        ] );
      ( "graph concepts",
        [
          Alcotest.test_case "fig1+fig2" `Quick test_fig1_fig2;
          Alcotest.test_case "broken graph diagnosed" `Quick
            test_fig2_broken_graph;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "closure" `Quick test_propagation_closure;
          Alcotest.test_case "idempotent" `Quick test_propagation_idempotent;
          Alcotest.test_case "tower" `Quick
            test_propagation_exponential_tower;
        ] );
      ("registry index",
        [ registry_equiv_prop; closure_equiv_prop;
          telemetry_transparent_prop ]);
      ( "direct writers",
        [
          ctype_text_equal_prop;
          ctype_text_is_pp_prop;
          Alcotest.test_case "report writer = pp_report (standard world)"
            `Quick test_report_writer_standard_world;
          report_writer_world_prop;
          Alcotest.test_case "random worlds reach every failure" `Quick
            test_report_worlds_reach_every_failure;
          report_writer_tree_prop;
        ] );
      ( "overlay",
        [
          overlay_equiv_prop;
          Alcotest.test_case "duplicate of a parent name" `Quick
            test_overlay_duplicate_parent_name;
          Alcotest.test_case "shadows a parent type" `Quick
            test_overlay_shadows_parent_type;
          Alcotest.test_case "refines across layers" `Quick
            test_overlay_refines_across_layers;
          Alcotest.test_case "shares the parent's index" `Quick
            test_overlay_shares_parent_index;
        ] );
      ( "archetype",
        [
          Alcotest.test_case "models own concept" `Quick
            test_archetype_models_its_concept;
          Alcotest.test_case "minimal" `Quick test_archetype_minimal;
          Alcotest.test_case "implies" `Quick test_archetype_implies;
        ] );
      ( "overload",
        [
          Alcotest.test_case "most refined wins" `Quick
            test_overload_most_refined_wins;
          Alcotest.test_case "no match reports" `Quick
            test_overload_no_match_reports;
          Alcotest.test_case "ambiguity" `Quick
            test_overload_ambiguity_detected;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "refines/attributes" `Quick
            test_taxonomy_refines_and_attributes;
          Alcotest.test_case "pick" `Quick test_taxonomy_pick;
          Alcotest.test_case "gaps" `Quick test_taxonomy_gaps;
        ] );
      ( "emulation",
        [
          Alcotest.test_case "cyclic concepts" `Quick test_cyclic_concepts;
          Alcotest.test_case "flattens incidence graph" `Quick
            test_emulation_flattens_incidence_graph;
          Alcotest.test_case "blowup" `Quick test_emulation_blowup;
          Alcotest.test_case "first-match ablation" `Quick
            test_first_match_is_worse;
        ] );
      (* last: its certifications are process-wide *)
      ( "check memo",
        [
          Alcotest.test_case "hit is the same report" `Quick
            test_memo_hit_is_same_report;
          Alcotest.test_case "bounded" `Quick test_memo_bounded;
          memo_equiv_prop;
          resolve_memo_prop;
        ] );
    ]
