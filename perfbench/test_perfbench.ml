(* The benchmark's own arithmetic on small fixed inputs, its metric
   catalog against BENCHMARK.json, and its inputs against the scenario
   catalog they reproduce. *)

open Perfbench
module Trace = Gp_telemetry.Trace
module Wire = Gp_service.Wire
module Request = Gp_service.Request
module Cluster = Gp_cluster.Cluster
module Scenario = Gp_scenario.Scenario

let feq = Alcotest.float 1e-9

let hundred = Array.init 100 (fun i -> float_of_int (100 - i))

let test_percentile () =
  let p = Stats.percentile hundred 0.5 in
  Alcotest.check feq "p50 of 1..100" 50.0 p.Stats.pc_value;
  Alcotest.(check int) "samples" 100 p.Stats.pc_samples;
  Alcotest.(check int) "beyond p50" 50 p.Stats.pc_beyond;
  let p = Stats.percentile hundred 0.99 in
  Alcotest.check feq "p99 of 1..100" 99.0 p.Stats.pc_value;
  Alcotest.(check int) "beyond p99" 1 p.Stats.pc_beyond;
  let p = Stats.percentile hundred 1.0 in
  Alcotest.check feq "p100 is the max" 100.0 p.Stats.pc_value;
  Alcotest.(check int) "nothing beyond the max" 0 p.Stats.pc_beyond;
  (* rank ceil(0.99 * 7) = 7: with under 100 samples p99 is the max *)
  let small = [| 3.0; 1.0; 2.0; 7.0; 5.0; 4.0; 6.0 |] in
  Alcotest.check feq "p99 of 7 samples" 7.0 (Stats.percentile small 0.99).Stats.pc_value;
  Alcotest.check feq "p50 of 7 samples" 4.0 (Stats.percentile small 0.5).Stats.pc_value;
  Alcotest.check feq "input left unsorted" 3.0 small.(0);
  Alcotest.check feq "single sample" 9.0 (Stats.percentile [| 9.0 |] 0.01).Stats.pc_value;
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_per_request () =
  Alcotest.check feq "10 / 4" 2.5 (Stats.per_request 10.0 ~requests:4);
  Alcotest.check_raises "zero requests"
    (Invalid_argument "Stats.per_request: no requests") (fun () ->
      ignore (Stats.per_request 1.0 ~requests:0))

let test_scaled () =
  Alcotest.check feq "slow host: reference took 2x nominal" 50.0
    (Stats.scaled 100.0 ~reference:2.0e6 ~nominal:1.0e6);
  Alcotest.check feq "nominal host" 100.0 (Stats.scaled 100.0 ~reference:1.0e6 ~nominal:1.0e6);
  Alcotest.check_raises "zero reference"
    (Invalid_argument "Stats.scaled: reference time <= 0") (fun () ->
      ignore (Stats.scaled 1.0 ~reference:0.0 ~nominal:1.0))

let test_failure_ratio () =
  Alcotest.check feq "1 of 4" 0.25 (Stats.failure_ratio ~failed:1 ~attempted:4);
  Alcotest.check feq "none failed" 0.0 (Stats.failure_ratio ~failed:0 ~attempted:7);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failure_ratio: nothing attempted") (fun () ->
      ignore (Stats.failure_ratio ~failed:0 ~attempted:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stats.failure_ratio: failed outside [0, attempted]")
    (fun () -> ignore (Stats.failure_ratio ~failed:3 ~attempted:2))

let span ?parent id name start dur =
  { Trace.sp_id = id; sp_parent = parent; sp_name = name; sp_start_ns = start;
    sp_dur_ns = dur; sp_attrs = []; sp_gc = None }

let test_self_time () =
  let root = span 1 "bench.handle" 0.0 100.0 in
  (* [15,30] overlaps [10,20]; [52,58] nests in [50,60]; [90,120] is
     clipped at the parent's end: covered = 20 + 10 + 10 = 40 *)
  let children =
    [ span ~parent:1 2 "concepts.check" 10.0 10.0;
      span ~parent:1 3 "bench.declare_standard" 15.0 15.0;
      span ~parent:1 4 "stllint.check" 50.0 10.0;
      span ~parent:4 5 "concepts.closure" 52.0 6.0;
      span ~parent:1 6 "structla.matvec" 90.0 30.0 ]
  in
  Alcotest.check feq "covered" 40.0
    (Stats.covered ~lo:0.0 ~hi:100.0
       (List.map (fun s -> (s.Trace.sp_start_ns, s.Trace.sp_start_ns +. s.Trace.sp_dur_ns)) children));
  Alcotest.check feq "self time" 60.0 (Stats.self_time root children);
  Alcotest.check feq "no children" 100.0 (Stats.self_time root []);
  Alcotest.check feq "fully covered" 0.0
    (Stats.self_time root [ span ~parent:1 7 "concepts.check" (-5.0) 200.0 ])

(* BENCHMARK.json declares exactly the catalog: names, units, order. *)
let test_catalog_matches_benchmark_json () =
  let doc = Wire.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  let field k = function
    | Wire.Obj kv -> List.assoc k kv
    | _ -> Alcotest.fail "BENCHMARK.json: not an object"
  in
  let str = function Wire.Str s -> s | _ -> Alcotest.fail "want a string" in
  let pairs key =
    match field key doc with
    | Wire.Arr items -> List.map (fun m -> (str (field "name" m), str (field "unit" m))) items
    | _ -> Alcotest.fail ("BENCHMARK.json: " ^ key ^ " is not a list")
  in
  let pp = Alcotest.(list (pair string string)) in
  Alcotest.check pp "end_to_end" Catalog.end_to_end (pairs "end_to_end");
  Alcotest.check pp "per_layer" Catalog.per_layer (pairs "per_layer");
  let workloads =
    match field "workloads" doc with
    | Wire.Arr items -> List.map (fun w -> str (field "name" w)) items
    | _ -> Alcotest.fail "BENCHMARK.json: workloads is not a list"
  in
  Alcotest.(check (list string)) "workloads" Inputs.names workloads

let cluster_of = function
  | Some (Inputs.Cluster c) -> c
  | _ -> Alcotest.fail "not a cluster workload"

(* The cluster workloads are the catalog's scenarios at seed 1, rebuilt
   from the public constructors: the same requests (in the same order
   when [ordered]), the same arrivals, the same shape. *)
let check_same_inputs ?(ordered = true) name (c : Inputs.cluster) (o : Scenario.outcome) =
  let r = o.Scenario.o_result in
  let keys reqs =
    let ks = Array.to_list (Array.map Request.key reqs) in
    if ordered then ks else List.sort compare ks
  in
  Alcotest.(check (list string)) (name ^ " requests")
    (keys r.Cluster.r_requests) (keys c.Inputs.cl_reqs);
  Alcotest.(check bool) (name ^ " arrivals") true
    (r.Cluster.r_config.Cluster.arrivals = c.Inputs.cl_config.Cluster.arrivals);
  Alcotest.(check int) (name ^ " replicas") r.Cluster.r_config.Cluster.replicas
    c.Inputs.cl_config.Cluster.replicas;
  Alcotest.(check bool) (name ^ " tuning") true
    (r.Cluster.r_config.Cluster.tuning = c.Inputs.cl_config.Cluster.tuning)

let scenario name = Option.get (Scenario.find name)

(* the reads are reordered by the seed, so compare them as a multiset *)
let test_stampede_is_the_catalog_entry () =
  let seed = 1 in
  let o = Scenario.run ~seed ~declare_standard:Inputs.declare_world (scenario "stampede") in
  check_same_inputs ~ordered:false "stampede"
    (cluster_of (Inputs.build "cluster_stampede" ~seed)) o

let test_read_heavy_is_the_quick_million () =
  let seed = 1 in
  let o =
    Scenario.run ~quick:true ~seed ~declare_standard:Inputs.declare_world
      (scenario "million")
  in
  check_same_inputs "million" (cluster_of (Inputs.build "cluster_read_heavy" ~seed)) o

let test_inputs_follow_the_seed () =
  List.iter
    (fun name ->
      let fp seed = Inputs.fingerprint (Option.get (Inputs.build name ~seed)) in
      Alcotest.(check string) (name ^ " same seed") (fp 3) (fp 3);
      Alcotest.(check bool) (name ^ " other seed") false (fp 3 = fp 4))
    Inputs.names

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "per-request division" `Quick test_per_request;
          Alcotest.test_case "host scaling" `Quick test_scaled;
          Alcotest.test_case "failure ratio" `Quick test_failure_ratio;
          Alcotest.test_case "span self time" `Quick test_self_time ] );
      ( "definition",
        [ Alcotest.test_case "catalog = BENCHMARK.json" `Quick
            test_catalog_matches_benchmark_json;
          Alcotest.test_case "inputs follow the seed" `Quick test_inputs_follow_the_seed;
          Alcotest.test_case "stampede = catalog stampede" `Quick
            test_stampede_is_the_catalog_entry;
          Alcotest.test_case "read_heavy = million --quick" `Slow
            test_read_heavy_is_the_quick_million ] ) ]
