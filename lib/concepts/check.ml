(* Concept checking with call-site-quality diagnostics.

   The paper's Section 2.1 complaint about C++: "passing a non-conforming
   data type usually results in lengthy error messages referring to the
   implementation of the generic function instead of the actual point of
   error". This checker produces structured failures that say exactly which
   requirement of which concept a type fails, so callers (examples, the
   overload resolver, the lint tool) can present the error at the right
   level of abstraction. *)

type failure =
  | Unknown_concept of string
  | Unknown_type of Ctype.t
  | Arity_mismatch of { concept : string; expected : int; got : int }
  | Unresolved_type of { ty : Ctype.t; context : string }
  | Missing_assoc_type of { ty : Ctype.t; assoc : string }
  | Missing_operation of { expected : Concept.signature }
  | Return_type_mismatch of {
      op : string;
      expected : Ctype.t;
      found : Ctype.t;
    }
  | Same_type_violated of { left : Ctype.t; right : Ctype.t }
  | Refinement_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Nested_model_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Complexity_too_weak of {
      op : string;
      required : Complexity.t;
      declared : Complexity.t;
    }
  | No_model_declared of { concept : string; args : Ctype.t list }

type warning =
  | Axiom_asserted_not_proved of { concept : string; axiom : string }
  | Axiom_not_asserted of { concept : string; axiom : string }
  | No_complexity_declared of { concept : string; op : string }

type report = {
  rep_concept : string;
  rep_args : Ctype.t list;
  rep_failures : failure list;
  rep_warnings : warning list;
}

let ok report = report.rep_failures = []

type mode =
  | Structural (* ML-signature style: structure alone decides *)
  | Nominal (* Haskell-type-class style: a model declaration is required *)

let rec pp_failure ppf = function
  | Unknown_concept c -> Fmt.pf ppf "unknown concept %s" c
  | Unknown_type ty -> Fmt.pf ppf "unknown type %a" Ctype.pp ty
  | Arity_mismatch { concept; expected; got } ->
    Fmt.pf ppf "concept %s expects %d type argument(s), got %d" concept
      expected got
  | Unresolved_type { ty; context } ->
    Fmt.pf ppf "cannot resolve type %a (%s)" Ctype.pp ty context
  | Missing_assoc_type { ty; assoc } ->
    Fmt.pf ppf "type %a does not provide associated type %s" Ctype.pp ty assoc
  | Missing_operation { expected } ->
    Fmt.pf ppf "no operation %a" Concept.pp_signature expected
  | Return_type_mismatch { op; expected; found } ->
    Fmt.pf ppf "operation %s returns %a where %a is required" op Ctype.pp
      found Ctype.pp expected
  | Same_type_violated { left; right } ->
    Fmt.pf ppf "types %a and %a must be equal" Ctype.pp left Ctype.pp right
  | Refinement_failed { concept; args; causes } ->
    Fmt.pf ppf "@[<v2>refined concept %s<%a> not modeled:@,%a@]" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args
      Fmt.(list ~sep:cut pp_failure)
      causes
  | Nested_model_failed { concept; args; causes } ->
    Fmt.pf ppf "@[<v2>required model %s<%a> fails:@,%a@]" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args
      Fmt.(list ~sep:cut pp_failure)
      causes
  | Complexity_too_weak { op; required; declared } ->
    Fmt.pf ppf "operation %s declared %a, concept requires %a" op
      Complexity.pp declared Complexity.pp required
  | No_model_declared { concept; args } ->
    Fmt.pf ppf "no model of %s declared for <%a> (nominal mode)" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args

let pp_warning ppf = function
  | Axiom_asserted_not_proved { concept; axiom } ->
    Fmt.pf ppf "axiom %s.%s is asserted but not backed by a checked proof"
      concept axiom
  | Axiom_not_asserted { concept; axiom } ->
    Fmt.pf ppf "axiom %s.%s is neither asserted nor proved" concept axiom
  | No_complexity_declared { concept; op } ->
    Fmt.pf ppf "model declares no complexity bound for %s.%s" concept op

let pp_report ppf r =
  if r.rep_failures = [] then
    Fmt.pf ppf "@[<v2><%a> models %s%a@]"
      Fmt.(list ~sep:comma Ctype.pp)
      r.rep_args r.rep_concept
      Fmt.(
        list ~sep:nop (fun ppf w -> pf ppf "@,warning: %a" pp_warning w))
      r.rep_warnings
  else
    Fmt.pf ppf "@[<v2><%a> does NOT model %s:@,%a@]"
      Fmt.(list ~sep:comma Ctype.pp)
      r.rep_args r.rep_concept
      Fmt.(list ~sep:cut pp_failure)
      r.rep_failures

(* Direct writers: the text [pp_report] prints, without Format. Every
   box above is a vertical one, where each break starts a new line
   indented two past the column the box opened at; boxes open only at
   line starts, and Format caps indentation at its default max_indent.
   [indent] is the column the current line starts at, which is also
   where the enclosing box's breaks indent to. *)
let max_indent = 68 (* Format's default: margin 78 minus min_space_left 10 *)

let add_newline buf indent =
  Buffer.add_char buf '\n';
  for _ = 1 to indent do Buffer.add_char buf ' ' done

let rec add_failure buf ~indent f =
  let str = Buffer.add_string buf in
  let ty t = Ctype.add_to_buffer ~break_indent:indent buf t in
  match f with
  | Unknown_concept c -> str "unknown concept "; str c
  | Unknown_type t -> str "unknown type "; ty t
  | Arity_mismatch { concept; expected; got } ->
    str "concept "; str concept; str " expects ";
    str (string_of_int expected); str " type argument(s), got ";
    str (string_of_int got)
  | Unresolved_type { ty = t; context } ->
    str "cannot resolve type "; ty t; str " ("; str context; str ")"
  | Missing_assoc_type { ty = t; assoc } ->
    str "type "; ty t; str " does not provide associated type "; str assoc
  | Missing_operation { expected } ->
    str "no operation "; str expected.Concept.op_name; str " : ";
    List.iteri
      (fun i p -> if i > 0 then str " * "; ty p)
      expected.Concept.op_params;
    str " -> "; ty expected.Concept.op_return
  | Return_type_mismatch { op; expected; found } ->
    str "operation "; str op; str " returns "; ty found; str " where ";
    ty expected; str " is required"
  | Same_type_violated { left; right } ->
    str "types "; ty left; str " and "; ty right; str " must be equal"
  | Refinement_failed { concept; args; causes } ->
    add_nested buf ~indent "refined concept " concept args " not modeled:"
      causes
  | Nested_model_failed { concept; args; causes } ->
    add_nested buf ~indent "required model " concept args " fails:" causes
  | Complexity_too_weak { op; required; declared } ->
    str "operation "; str op; str " declared ";
    str (Complexity.to_string declared); str ", concept requires ";
    str (Complexity.to_string required)
  | No_model_declared { concept; args } ->
    str "no model of "; str concept; str " declared for <";
    Ctype.add_list_to_buffer ~break_indent:indent buf args;
    str "> (nominal mode)"

and add_nested buf ~indent head concept args tail causes =
  let inner = Int.min max_indent (indent + 2) in
  Buffer.add_string buf head;
  Buffer.add_string buf concept;
  Buffer.add_char buf '<';
  Ctype.add_list_to_buffer ~break_indent:inner buf args;
  Buffer.add_char buf '>';
  Buffer.add_string buf tail;
  List.iter
    (fun f ->
      add_newline buf inner;
      add_failure buf ~indent:inner f)
    causes

let add_warning buf w =
  let str = Buffer.add_string buf in
  match w with
  | Axiom_asserted_not_proved { concept; axiom } ->
    str "axiom "; str concept; str "."; str axiom;
    str " is asserted but not backed by a checked proof"
  | Axiom_not_asserted { concept; axiom } ->
    str "axiom "; str concept; str "."; str axiom;
    str " is neither asserted nor proved"
  | No_complexity_declared { concept; op } ->
    str "model declares no complexity bound for "; str concept; str ".";
    str op

let add_report buf r =
  Buffer.add_char buf '<';
  Ctype.add_list_to_buffer ~break_indent:2 buf r.rep_args;
  if r.rep_failures = [] then begin
    Buffer.add_string buf "> models ";
    Buffer.add_string buf r.rep_concept;
    List.iter
      (fun w ->
        add_newline buf 2;
        Buffer.add_string buf "warning: ";
        add_warning buf w)
      r.rep_warnings
  end
  else begin
    Buffer.add_string buf "> does NOT model ";
    Buffer.add_string buf r.rep_concept;
    Buffer.add_char buf ':';
    List.iter
      (fun f ->
        add_newline buf 2;
        add_failure buf ~indent:2 f)
      r.rep_failures
  end

(* The axiom-proof certification table: (concept, axiom, type-args) triples
   that have been discharged by a checked proof. gp_simplicissimus's Certify
   and the athena examples insert into this through [certify_axiom]. *)
let certified : (string * string * string) list ref = ref []

(* Bumped by every new certification, so verdict memos (below) can tell
   that an axiom warning they hold may no longer be issued. *)
let certified_epoch = ref 0

let args_key args = String.concat "," (List.map Ctype.to_string args)

let certify_axiom ~concept ~axiom ~args =
  let key = (concept, axiom, args_key args) in
  if not (List.mem key !certified) then begin
    certified := key :: !certified;
    incr certified_epoch
  end

(* The argument key is rendered only once an entry's concept and axiom
   match, so checking an axiom nobody certified renders nothing. *)
let rec certified_in concept axiom args = function
  | [] -> false
  | (c, a, _) :: rest
    when not (String.equal c concept && String.equal a axiom) ->
    certified_in concept axiom args rest
  | entries -> List.mem (concept, axiom, args_key args) entries

let axiom_certified ~concept ~axiom ~args =
  certified_in concept axiom args !certified

(* The checker pushes failures and warnings in report order onto one
   accumulator per concept, most recent first, and [check] reverses
   them once. Warnings of nested checks flow into the same list; a
   nested check's failures are gathered apart and wrapped. *)
type acc = { mutable fails : failure list; mutable warns : warning list }

let fail acc f = acc.fails <- f :: acc.fails
let warn acc w = acc.warns <- w :: acc.warns

(* [map (fun a -> resolve a, or a itself) (map (subst env) tys)] *)
let rec subst_resolved reg env = function
  | [] -> []
  | a :: rest ->
    let a = Ctype.subst env a in
    let g = match Registry.resolve reg a with Some g -> g | None -> a in
    g :: subst_resolved reg env rest

(* Substituted and resolved parameter types; [None] when one does not
   resolve. *)
let rec resolve_params reg env = function
  | [] -> Some []
  | p :: rest -> (
    match Registry.resolve reg (Ctype.subst env p) with
    | None -> None
    | Some g -> (
      match resolve_params reg env rest with
      | None -> None
      | Some gs -> Some (g :: gs)))

let rec on_stack name args = function
  | [] -> false
  | (c, a) :: rest ->
    (String.equal c name && List.equal Ctype.equal a args)
    || on_stack name args rest

let check_operation reg env (s : Concept.signature) acc =
  match resolve_params reg env s.Concept.op_params with
  | None ->
    fail acc
      (Unresolved_type
         { ty = Ctype.subst env (List.hd s.Concept.op_params);
           context = "parameter of " ^ s.Concept.op_name })
  | Some param_tys -> (
    match Registry.find_ops reg s.Concept.op_name param_tys with
    | [] ->
      fail acc
        (Missing_operation
           { expected =
               { s with
                 Concept.op_params = param_tys;
                 op_return = Ctype.subst env s.Concept.op_return } })
    | candidates -> (
      let ret = Ctype.subst env s.Concept.op_return in
      match Registry.resolve reg ret with
      | None ->
        fail acc
          (Unresolved_type
             { ty = ret; context = "return of " ^ s.Concept.op_name })
      | Some expected -> (
        let returns =
          List.filter_map
            (fun (c : Concept.signature) ->
              Registry.resolve reg c.Concept.op_return)
            candidates
        in
        if not (List.exists (Ctype.equal expected) returns) then
          match returns with
          | found :: _ ->
            fail acc
              (Return_type_mismatch
                 { op = s.Concept.op_name; expected; found })
          | [] ->
            fail acc
              (Unresolved_type
                 { ty = s.Concept.op_return;
                   context = "return of found op " ^ s.Concept.op_name }))))

let rec check_concept ~mode ~visited reg concept_name args acc =
  match Registry.find_concept reg concept_name with
  | None -> fail acc (Unknown_concept concept_name)
  | Some con ->
    let params = con.Concept.params in
    let expected = List.length params and got = List.length args in
    if expected <> got then
      fail acc (Arity_mismatch { concept = concept_name; expected; got })
    else if on_stack concept_name args visited then () (* assume on cycles *)
    else begin
      let visited = (concept_name, args) :: visited in
      let env = List.combine params args in
      let model = Registry.find_model reg concept_name args in
      (match mode, model with
      | Nominal, None ->
        fail acc (No_model_declared { concept = concept_name; args })
      | (Nominal | Structural), _ -> ());
      List.iter
        (fun (rname, rargs) ->
          check_nested ~mode ~visited reg ~refinement:true rname
            (subst_resolved reg env rargs) acc)
        con.Concept.refines;
      List.iter
        (fun req ->
          match req with
          | Concept.Assoc_type { at_name; at_constraints } -> (
            (* associated types belong to the first parameter *)
            let owner = List.hd args in
            match Registry.resolve reg (Ctype.Assoc (owner, at_name)) with
            | None -> fail acc (Missing_assoc_type { ty = owner; assoc = at_name })
            | Some _ ->
              List.iter
                (fun c -> check_constraint ~mode ~visited reg env c acc)
                at_constraints)
          | Concept.Operation s -> check_operation reg env s acc
          | Concept.Constraint c -> check_constraint ~mode ~visited reg env c acc
          | Concept.Axiom a ->
            if
              not
                (axiom_certified ~concept:concept_name ~axiom:a.ax_name ~args)
            then
              warn acc
                (match model with
                | Some m
                  when List.mem a.Concept.ax_name m.Registry.mo_axioms_asserted
                  ->
                  Axiom_asserted_not_proved
                    { concept = concept_name; axiom = a.Concept.ax_name }
                | _ ->
                  Axiom_not_asserted
                    { concept = concept_name; axiom = a.Concept.ax_name })
          | Concept.Complexity_guarantee cg -> (
            let undeclared () =
              warn acc
                (No_complexity_declared
                   { concept = concept_name; op = cg.Concept.cg_op })
            in
            match model with
            | None -> undeclared ()
            | Some m -> (
              match List.assoc_opt cg.Concept.cg_op m.Registry.mo_complexity with
              | None -> undeclared ()
              | Some declared ->
                if not (Complexity.leq declared cg.Concept.cg_bound) then
                  fail acc
                    (Complexity_too_weak
                       { op = cg.Concept.cg_op;
                         required = cg.Concept.cg_bound;
                         declared }))))
        con.Concept.requirements
    end

(* A refined or required model: its warnings join the caller's, its
   failures are wrapped into one. *)
and check_nested ~mode ~visited reg ~refinement name args acc =
  let sub = { fails = []; warns = acc.warns } in
  check_concept ~mode ~visited reg name args sub;
  acc.warns <- sub.warns;
  if sub.fails <> [] then
    let causes = List.rev sub.fails in
    fail acc
      (if refinement then Refinement_failed { concept = name; args; causes }
       else Nested_model_failed { concept = name; args; causes })

and check_constraint ~mode ~visited reg env c acc =
  match c with
  | Concept.Models (cname, cargs) ->
    check_nested ~mode ~visited reg ~refinement:false cname
      (subst_resolved reg env cargs) acc
  | Concept.Same_type (a, b) -> (
    let ra = Registry.resolve reg (Ctype.subst env a)
    and rb = Registry.resolve reg (Ctype.subst env b) in
    match ra, rb with
    | Some x, Some y when Ctype.equal x y -> ()
    | Some x, Some y -> fail acc (Same_type_violated { left = x; right = y })
    | None, _ ->
      fail acc (Unresolved_type { ty = a; context = "same-type constraint" })
    | _, None ->
      fail acc (Unresolved_type { ty = b; context = "same-type constraint" }))

(* A verdict memo: the reports of whole checks against one world. A
   verdict depends on the registry's contents and the certification
   table, so the memo remembers which registry (by identity), at which
   generation and under which certification epoch it was filled, and
   empties itself when any of the three differs. Only whole checks are
   remembered: a nested judgment assumed true on a refinement cycle is
   not a verdict. Clients name the concepts and types, so the table is
   emptied, not grown, at [memo_limit] entries. *)
type memo = {
  verdicts : (mode * string * Ctype.t list, report) Hashtbl.t;
  mutable world : Registry.t option;
  mutable generation : int;
  mutable epoch : int;
}

let memo_limit = 1024

let memo () =
  { verdicts = Hashtbl.create 16; world = None; generation = 0; epoch = 0 }

let memo_size m = Hashtbl.length m.verdicts

let memo_for m reg =
  let generation = Registry.generation reg in
  match m.world with
  | Some w
    when w == reg && m.generation = generation && m.epoch = !certified_epoch
    -> ()
  | _ ->
    Hashtbl.reset m.verdicts;
    m.world <- Some reg;
    m.generation <- generation;
    m.epoch <- !certified_epoch

let run_check ~mode reg concept args =
  let acc = { fails = []; warns = [] } in
  check_concept ~mode ~visited:[] reg concept args acc;
  {
    rep_concept = concept;
    rep_args = args;
    rep_failures = List.rev acc.fails;
    rep_warnings = List.rev acc.warns;
  }

(* Public entry point: check whether ground types [args] model [concept].
   A memo hit emits the same span and counters as a miss. *)
let check ?(mode = Structural) ?memo reg concept args =
  Gp_telemetry.Tel.with_span ~name:"concepts.check"
    ~attrs:(fun () ->
      [
        ( "mode",
          match mode with Structural -> "structural" | Nominal -> "nominal" );
        ("concept", concept);
      ])
    (fun () ->
      let module Tel = Gp_telemetry.Tel in
      let report =
        match memo with
        | None -> run_check ~mode reg concept args
        | Some m -> (
          memo_for m reg;
          let key = (mode, concept, args) in
          match Hashtbl.find_opt m.verdicts key with
          | Some report ->
            Tel.count "gp_check_memo_hits_total" 1;
            report
          | None ->
            let report = run_check ~mode reg concept args in
            if Hashtbl.length m.verdicts >= memo_limit then
              Hashtbl.reset m.verdicts;
            Hashtbl.add m.verdicts key report;
            report)
      in
      if Tel.is_enabled () then begin
        let outcome = if report.rep_failures = [] then "ok" else "failed" in
        Tel.count ~labels:[ ("outcome", outcome) ] "gp_checks_total" 1;
        Tel.count "gp_check_failures_total" (List.length report.rep_failures);
        Tel.count "gp_check_warnings_total" (List.length report.rep_warnings);
        Tel.attr "outcome" outcome
      end;
      report)

let models ?mode reg concept args = ok (check ?mode reg concept args)
