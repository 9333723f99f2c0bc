(* The four workloads as pure functions of the seed. The program under
   test receives only what these build: request lines, request arrays,
   arrival schedules and configs. *)

module Request = Gp_service.Request
module Server = Gp_service.Server
module Wire = Gp_service.Wire
module Workload = Gp_service.Workload
module Cluster = Gp_cluster.Cluster
module Node = Gp_cluster.Node
module Arrivals = Gp_scenario.Arrivals

(* The standard world: every registry declaration the libraries ship. *)
let declare_world reg =
  Gp_algebra.Decls.declare reg;
  Gp_sequence.Decls.declare reg;
  Gp_graph.Decls.declare reg;
  Gp_linalg.Decls.declare reg;
  Gp_structla.Decls.declare reg

type serve = {
  sv_reqs : Request.t list;
  sv_lines : string array;  (* the client's request lines, in order *)
  sv_config : Server.config;
}

type cluster = {
  cl_reqs : Request.t array;
  cl_config : Cluster.config;  (* [arrivals] is always [Some] *)
}

type t = Serve of serve | Cluster of cluster

let names = [ "serve_hot"; "serve_cold"; "cluster_read_heavy"; "cluster_stampede" ]

(* The default kind mix plus the structured numeric kernels. *)
let serve_mix =
  Workload.default_mix
  @ [ (Request.Kmatvec, 8); (Request.Kmatmul, 4); (Request.Ksolve, 4) ]

(* What a workload holds is drawn once, from [content_seed]; the run's
   seed draws the order it arrives in (and, for a cluster, when). A few
   costly kinds set the cost: about 2% of a serve stream are
   check-with-defs sandboxes at 50x a hit's cost, so redrawing the
   content per seed would move the cost by its sampling noise, not by
   anything the program does. Shuffling a fixed draw keeps the draw's
   statistics: the generator's requests are independent draws. *)
let content_seed = 1

let shuffle ~seed a =
  let a = Array.copy a in
  let st = Random.State.make [| seed; 0x5b1f |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The closed loop cycles through the stream. *)
let serve_stream_length = 16_000

let serve ~zipf ~keyspace ~cache_capacity ~seed =
  let reqs =
    Array.to_list
      (shuffle ~seed
         (Array.of_list
            (Workload.generate ~mix:serve_mix ~zipf ~keyspace ~seed:content_seed
               ~n:serve_stream_length ())))
  in
  Serve
    { sv_reqs = reqs;
      sv_lines =
        Array.of_list (List.mapi (fun id r -> Wire.request_to_line ~id r) reqs);
      sv_config = { Server.default_config with cache_capacity } }

(* The million scenario's read-heavy mix and tiled pool (0.5% parse
   writes, which replicate to every replica). *)
let read_heavy_mix =
  [ (Request.Kclosure, 60); (Request.Klint, 50); (Request.Kcheck, 40);
    (Request.Koptimize, 25); (Request.Kprove, 24); (Request.Kparse, 1) ]

let tiled ~seed ~pool n =
  let st = Random.State.make [| seed; 0x71ed |] in
  let m = Array.length pool in
  Array.init n (fun _ ->
      let u = Random.State.float st 1.0 in
      pool.(min (m - 1) (int_of_float (float_of_int m *. u *. u))))

let gen ?mix ?zipf ?keyspace ~seed n =
  Array.of_list (Workload.generate ?mix ?zipf ?keyspace ~seed ~n ())

let read_heavy_requests = 20_000

(* [million --quick]: 20k Poisson arrivals at 50 per sim unit over 32
   key-sharded replicas, tiled from the pool of [--seed 1]. The tiling
   puts sqrt(k/500) of all traffic on the first k pool entries, so a
   pool drawn per seed would swing run cost 1.5x on whether its head
   holds check-with-defs sandboxes. *)
let cluster_read_heavy ~seed =
  let n = read_heavy_requests in
  let pool = gen ~mix:read_heavy_mix ~seed:content_seed 500 in
  Cluster
    { cl_reqs = tiled ~seed ~pool n;
      cl_config =
        { Cluster.default_config with
          replicas = 32;
          seed;
          max_time = 1.0e6;
          max_events = 60_000_000;
          arrivals = Some (Arrivals.poisson ~seed ~rate:50.0 n) } }

(* The catalog's [stampede] at [--seed 1], its reads reordered by the
   seed: 12 leader-replicated .gpc writes, then a Poisson read flood
   onto six hot check/optimize keys. *)
let cluster_stampede ~seed =
  let n_w = 12 and n_r = 2000 in
  let writes = gen ~mix:[ (Request.Kparse, 1) ] ~keyspace:4 ~seed:content_seed n_w in
  let reads =
    shuffle ~seed
      (gen
         ~mix:[ (Request.Kcheck, 3); (Request.Koptimize, 2) ]
         ~zipf:2.0 ~keyspace:6 ~seed:(content_seed + 1) n_r)
  in
  Cluster
    { cl_reqs = Array.append writes reads;
      cl_config =
        { Cluster.default_config with
          replicas = 6;
          seed;
          tuning =
            { Node.default_tuning with
              service_time = 1.0;
              service_time_hit = 0.02 };
          arrivals =
            Some
              (Array.append
                 (Arrivals.uniform ~start:1.0 ~interval:2.0 n_w)
                 (Arrivals.poisson ~start:30.0 ~seed ~rate:40.0 n_r)) } }

let build name ~seed =
  match name with
  | "serve_hot" -> Some (serve ~zipf:1.1 ~keyspace:40 ~cache_capacity:256 ~seed)
  | "serve_cold" -> Some (serve ~zipf:0.5 ~keyspace:400 ~cache_capacity:16 ~seed)
  | "cluster_read_heavy" -> Some (cluster_read_heavy ~seed)
  | "cluster_stampede" -> Some (cluster_stampede ~seed)
  | _ -> None

let requests = function
  | Serve s -> Array.of_list s.sv_reqs
  | Cluster c -> c.cl_reqs

(* Equal fingerprints mean identical inputs: the request stream, and for
   a cluster also every arrival instant (bit pattern) and the shape. *)
let fingerprint = function
  | Serve s -> Workload.fingerprint s.sv_reqs
  | Cluster c ->
    let b = Buffer.create 4096 in
    Array.iter
      (fun r ->
        Buffer.add_string b (Request.key r);
        Buffer.add_char b '\n')
      c.cl_reqs;
    Option.iter
      (Array.iter (fun t ->
           Buffer.add_string b (Int64.to_string (Int64.bits_of_float t));
           Buffer.add_char b ' '))
      c.cl_config.Cluster.arrivals;
    Buffer.add_string b
      (Printf.sprintf "replicas=%d seed=%d" c.cl_config.Cluster.replicas
         c.cl_config.Cluster.seed);
    Digest.to_hex (Digest.string (Buffer.contents b))
