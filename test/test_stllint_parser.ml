(* Tests for the STLlint surface syntax: the Fig. 4 program written as
   program text must produce the same diagnostics as the hand-built AST,
   and the frontend's contextual argument typing must hold up. *)

open Gp_stllint

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let count_sev sev ds =
  List.length (List.filter (fun d -> d.Interp.d_severity = sev) ds)

(* Fig. 4, as source text. *)
let fig4_src =
  {|
  // extract and erase failing grades -- the buggy version
  vector<student> students;
  vector<student> fail;
  iter it = students.begin();
  iter last = students.end();
  while (it != last) {
    if (fgrade(*it)) {
      fail.push_back(*it);
      students.erase(it);     // result discarded: it becomes singular
    } else {
      ++it;
    }
  }
|}

let test_fig4_from_source () =
  let ds = Parser.check_source fig4_src in
  Alcotest.(check int) "one error" 1 (count_sev Interp.Error ds);
  Alcotest.(check bool) "the singular message" true
    (List.exists
       (fun d -> contains d.Interp.d_message "singular iterator")
       ds)

let fig4_fixed_src =
  {|
  vector<student> students;
  vector<student> fail;
  iter it = students.begin();
  iter last = students.end();
  while (it != last) {
    if (fgrade(*it)) {
      fail.push_back(*it);
      it = students.erase(it);
      last = students.end();
    } else {
      ++it;
    }
  }
|}

let test_fig4_fixed_from_source () =
  let ds = Parser.check_source fig4_fixed_src in
  Alcotest.(check int) "clean" 0 (List.length ds)

let test_sorted_find_from_source () =
  let ds =
    Parser.check_source
      {|
      vector<int> v;
      sort(v);
      iter i = find(v, 42);
    |}
  in
  Alcotest.(check int) "one suggestion" 1 (count_sev Interp.Suggestion ds);
  Alcotest.(check bool) "lower_bound suggested" true
    (List.exists (fun d -> contains d.Interp.d_message "lower_bound") ds)

let test_stream_from_source () =
  let ds =
    Parser.check_source
      {|
      istream cin;
      iter m = max_element(cin);
    |}
  in
  Alcotest.(check bool) "multipass error" true
    (List.exists (fun d -> contains d.Interp.d_message "multipass") ds)

(* contextual argument typing: container vs iterator range vs predicate *)
let test_argument_typing () =
  let program =
    Parser.parse_program
      {|
      vector<int> v;
      iter a = v.begin();
      iter b = v.end();
      count_if(a..b, is_even);
    |}
  in
  match List.rev program with
  | { Ast.node = Ast.Algo { args; _ }; _ } :: _ ->
    Alcotest.(check bool) "range arg" true
      (List.exists
         (function Ast.A_range (Ast.R_iters ("a", "b")) -> true | _ -> false)
         args);
    Alcotest.(check bool) "pred arg" true
      (List.exists (function Ast.A_pred "is_even" -> true | _ -> false) args)
  | _ -> Alcotest.fail "expected an algorithm call"

let test_sorted_annotation () =
  let ds =
    Parser.check_source
      {|
      vector<int> v sorted;
      binary_search(v, 7);
    |}
  in
  Alcotest.(check int) "no warnings: declared sorted" 0
    (count_sev Interp.Warning ds)

let test_labels_carry_source () =
  let ds = Parser.check_source fig4_src in
  match List.find_opt (fun d -> d.Interp.d_severity = Interp.Error) ds with
  | Some d ->
    Alcotest.(check bool) "label shows the offending source" true
      (contains d.Interp.d_where "fgrade")
  | None -> Alcotest.fail "no error"

let test_parse_errors () =
  let cases =
    [ "vector<int> v"; (* missing ; *) "iter x = ;"; "while (x) {";
      "v.push_back(1);" (* undeclared container -> undeclared name error *) ]
  in
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Parser.Parse_error _ -> ())
    cases

let test_deque_and_members () =
  let ds =
    Parser.check_source
      {|
      deque<int> d;
      d.push_front(1);
      d.push_back(2);
      d.pop_back();
      iter i = d.begin();
      iter e = d.end();
      if (i != e) { *i; }
    |}
  in
  Alcotest.(check int) "clean" 0 (List.length ds)

(* Round-trip: every corpus program renders to surface syntax and parses
   back structurally equal — and with identical diagnostics. *)
let test_roundtrip_corpus () =
  List.iter
    (fun (c : Corpus.case) ->
      let src = Render.to_source c.Corpus.program in
      match Parser.parse_program src with
      | reparsed ->
        Alcotest.(check bool)
          (c.Corpus.case_name ^ " round-trips:\n" ^ src)
          true
          (Render.block_equal c.Corpus.program reparsed);
        let d1 = Interp.check c.Corpus.program in
        let d2 = Interp.check reparsed in
        Alcotest.(check (list string))
          (c.Corpus.case_name ^ " same diagnostics")
          (List.map (fun d -> d.Interp.d_message) d1)
          (List.map (fun d -> d.Interp.d_message) d2)
      | exception Parser.Parse_error { line; message } ->
        Alcotest.failf "%s: rendered source fails to parse (line %d: %s)\n%s"
          c.Corpus.case_name line message src)
    Corpus.all

let test_roundtrip_generated () =
  let program = Corpus.generate ~blocks:12 ~buggy_every:3 in
  let reparsed = Parser.parse_program (Render.to_source program) in
  Alcotest.(check bool) "generated corpus round-trips" true
    (Render.block_equal program reparsed)

(* ------------------------------------------------------------------ *)
(* The parent parser as an oracle, seeded mutations, totality          *)
(* ------------------------------------------------------------------ *)

module Ref = Stllint_parser_ref

type outcome =
  | Parsed of Ast.stmt list
  | Rejected of int * string (* Parse_error line and message *)
  | Raised of string (* any other exception *)

let show = function
  | Parsed p -> Printf.sprintf "%d statements" (List.length p)
  | Rejected (line, message) -> Printf.sprintf "line %d: %s" line message
  | Raised e -> "raised " ^ e

exception Hang

(* A parse still running after 2 s of wall time is a hang: the alarm's
   handler raises [Hang] inside it, which the outcome records. *)
let bounded f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Hang))
  in
  ignore (Unix.alarm 2);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)

let run_new src =
  bounded (fun () ->
      match Parser.parse_program src with
      | p -> Parsed p
      | exception Parser.Parse_error { line; message } ->
        Rejected (line, message)
      | exception e -> Raised (Printexc.to_string e))

let run_ref src =
  bounded (fun () ->
      match Ref.parse_program src with
      | p -> Parsed p
      | exception Ref.Parse_error { line; message } ->
        Rejected (line, message)
      | exception e -> Raised (Printexc.to_string e))

(* Same AST with labels, or the same error line and message. Where the
   reference dies of another exception (an overflowing literal fails
   its [int_of_string]), the new parser must reject with a
   [Parse_error]. *)
let agrees src =
  match (run_ref src, run_new src) with
  | Raised _, Rejected _ -> true
  | expected, got when expected = got -> true
  | expected, got ->
    QCheck.Test.fail_reportf "reference: %s@.new: %s" (show expected) (show got)

(* Every served lint program: the 400 keys serve_cold draws from and
   the 40 of serve_hot share one generator, with its error programs. *)
let served_sources =
  let open Gp_service in
  Workload.generate ~mix:[ (Request.Klint, 1) ] ~zipf:0.0 ~keyspace:400
    ~errors:0.1 ~seed:7 ~n:4000 ()
  |> List.filter_map (function
       | Request.Lint { source } -> Some source
       | _ -> None)
  |> List.sort_uniq String.compare

let corpus_sources =
  List.map
    (fun (c : Corpus.case) -> Render.to_source c.Corpus.program)
    Corpus.all
  @ List.concat_map
      (fun blocks ->
        List.map
          (fun buggy_every ->
            Render.to_source (Corpus.generate ~blocks ~buggy_every))
          [ 0; 2; 3 ])
      [ 1; 2; 5; 12 ]
  @ [ fig4_src; fig4_fixed_src ]

let seeds = Array.of_list (corpus_sources @ served_sources)

let test_oracle_sources () =
  Alcotest.(check int) "every served lint key drawn" 400
    (List.length
       (List.filter
          (String.starts_with ~prefix:"// workload lint key")
          served_sources));
  Array.iter (fun src -> ignore (agrees src)) seeds

(* Grammar characters weigh in so flips land near what the lexer
   distinguishes; any byte can still appear. *)
let alphabet = "(){},;*=.<>+-!/ \n\t\r\012_azAZ09@#\""

let snippets =
  [| "// note\n"; "//"; "\n"; "\r\n"; "  "; "iter "; "iter = "; "iter == ";
     "=="; "!="; "..";
     "++"; "--"; "vector<int> v;\n"; "while ("; "if ("; "} else {"; "{";
     "}"; " sorted"; "singular"; "4611686018427387903";
     "4611686018427387904"; "99999999999999999999" |]

let mutate_once st src =
  let n = String.length src in
  let at () = Random.State.int st (n + 1) in
  let insert piece =
    let i = at () in
    String.sub src 0 i ^ piece ^ String.sub src i (n - i)
  in
  match Random.State.int st 7 with
  | 0 when n > 0 ->
    (* byte flip *)
    let i = Random.State.int st n in
    let c =
      if Random.State.bool st then
        alphabet.[Random.State.int st (String.length alphabet)]
      else Char.chr (Random.State.int st 256)
    in
    String.mapi (fun j d -> if j = i then c else d) src
  | 1 -> String.sub src 0 (at ()) (* truncation *)
  | 2 ->
    (* splice: a slice of some seed program replaces a range *)
    let other = seeds.(Random.State.int st (Array.length seeds)) in
    let a = Random.State.int st (String.length other + 1) in
    let len = Random.State.int st (String.length other - a + 1) in
    let i = at () in
    let j = i + Random.State.int st (n - i + 1) in
    String.sub src 0 i ^ String.sub other a len ^ String.sub src j (n - j)
  | 3 ->
    (* a long digit run: around max_int's 19 digits *)
    insert
      (String.init
         (1 + Random.State.int st 30)
         (fun _ -> Char.chr (Char.code '0' + Random.State.int st 10)))
  | 4 -> insert snippets.(Random.State.int st (Array.length snippets))
  | 5 ->
    (* reflow: every line break becomes CRLF, trailing blanks, a blank
       line or a trailing comment *)
    let nl = [| "\r\n"; " \t\n"; "\n\n"; " // c\n"; "\012\n" |] in
    let by = nl.(Random.State.int st (Array.length nl)) in
    String.concat by (String.split_on_char '\n' src)
  | _ ->
    (* deletion of a range *)
    let i = at () in
    let j = i + Random.State.int st (n - i + 1) in
    String.sub src 0 i ^ String.sub src j (n - j)

let gen_mutant st =
  let rec go k src = if k = 0 then src else go (k - 1) (mutate_once st src) in
  go
    (1 + Random.State.int st 4)
    seeds.(Random.State.int st (Array.length seeds))

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2004 |]) t

let prop_mutants_agree =
  QCheck.Test.make ~count:3000 ~name:"mutants: new parser = parent parser"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutant)
    agrees

(* Agreement already makes the parser total on mutants; here on any
   bytes, grammar characters weighted in. *)
let total src =
  match run_new src with
  | Parsed _ | Rejected _ -> true
  | Raised e -> QCheck.Test.fail_reportf "not total: %s" e

let prop_total_bytes =
  QCheck.Test.make ~count:2000 ~name:"random bytes: AST or Parse_error"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size (int_bound 200)
            ~gen:
              (frequency
                 [ ( 3,
                     map (String.get alphabet)
                       (int_bound (String.length alphabet - 1)) );
                   (1, char) ])))
    total

(* An overflowing literal is a positioned parse error; max_int still
   parses. *)
let test_overflowing_literal () =
  let src = "vector<int> v;\nv.push_back(99999999999999999999999);\n" in
  (match Parser.parse_program src with
  | _ -> Alcotest.fail "accepted an overflowing literal"
  | exception Parser.Parse_error { line; message } ->
    Alcotest.(check int) "line of the literal" 2 line;
    Alcotest.(check string) "message"
      "integer literal 99999999999999999999999 is out of range" message);
  match Parser.parse_program "vector v; v.push_back(4611686018427387903);" with
  | [ _; { Ast.node = Ast.Push_back ("v", Ast.Const k); _ } ] ->
    Alcotest.(check int) "max_int still parses" max_int k
  | _ -> Alcotest.fail "max_int literal"

let () =
  Alcotest.run "gp_stllint_parser"
    [
      ( "end to end",
        [
          Alcotest.test_case "fig4 buggy" `Quick test_fig4_from_source;
          Alcotest.test_case "fig4 fixed" `Quick test_fig4_fixed_from_source;
          Alcotest.test_case "sorted find" `Quick
            test_sorted_find_from_source;
          Alcotest.test_case "stream multipass" `Quick
            test_stream_from_source;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "argument typing" `Quick test_argument_typing;
          Alcotest.test_case "sorted annotation" `Quick
            test_sorted_annotation;
          Alcotest.test_case "labels" `Quick test_labels_carry_source;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "deque members" `Quick test_deque_and_members;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "corpus" `Quick test_roundtrip_corpus;
          Alcotest.test_case "generated" `Quick test_roundtrip_generated;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "corpus and served programs" `Quick
            test_oracle_sources;
          qtest prop_mutants_agree;
          qtest prop_total_bytes;
          Alcotest.test_case "overflowing literal" `Quick
            test_overflowing_literal;
        ] );
    ]
