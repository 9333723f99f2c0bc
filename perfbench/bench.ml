(* The repository benchmark: one workload per run, timed from outside.

   usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, measured with
   telemetry off. With --trace 1 it prints the per-layer breakdown: its
   own spans around every call it makes into a layer, plus the spans and
   counters the libraries already emit. Either way it checks the
   answers, and the last line of stdout is one JSON object; a wrong
   answer makes the exit code 1. *)

module Stats = Perfbench.Stats
module Inputs = Perfbench.Inputs
module Catalog = Perfbench.Catalog
module Request = Gp_service.Request
module Server = Gp_service.Server
module Wire = Gp_service.Wire
module Flight = Gp_service.Flight
module Lru = Gp_service.Lru
module Cluster = Gp_cluster.Cluster
module Tel = Gp_telemetry.Tel
module Trace = Gp_telemetry.Trace
module Tmetrics = Gp_telemetry.Metrics
module Recorder = Gp_telemetry.Recorder
module Attribution = Gp_tracing.Attribution

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let ns_to_s ns = ns /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by up to 2x over seconds as other
   tenants load it, and the drift moves allocation-heavy code most. So
   every wall time is scaled to a nominal host: a fixed reference loop
   (stdlib only, none of the code under test) is timed next to each
   measurement, and the time is multiplied by [reference_nominal_ns]
   over the reference's time. Raw times are printed beside. *)
let reference_nominal_ns = 1.0e6

let reference () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 4_000 do
    Hashtbl.replace h (string_of_int (i land 1023)) i
  done;
  let l = ref [] in
  for i = 1 to 20_000 do
    l := (i * 7) :: !l;
    if i mod 1000 = 0 then l := []
  done;
  let a = Array.init 1000 (fun i -> i * 7919 land 65535) in
  Array.sort compare a;
  Hashtbl.length h + a.(0) + List.length !l

(* minor words the reference allocated, kept out of the program's *)
let reference_words = ref 0.0

let reference_ns () =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (reference ()));
  let dt = now_ns () -. t0 in
  reference_words := !reference_words +. (Gc.minor_words () -. w0);
  dt

let host_sample () = Stats.median (List.init 3 (fun _ -> reference_ns ()))

let host_factors = ref []

(* Host samples taken while a measured call runs: every [sample_period]
   seconds an interval timer interrupts it to time the reference once.
   The interruptions' own time is taken back out of the call's. *)
let sample_period = 0.05
let sampling = ref false
let samples_during = ref []
let interruptions_ns = ref 0.0

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !sampling then begin
           let t0 = now_ns () in
           samples_during := reference_ns () :: !samples_during;
           interruptions_ns := !interruptions_ns +. (now_ns () -. t0)
         end))

let set_timer period =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

(* Run [f] with the host sampled before and after it, and with [~during]
   (the default) while it runs: (result, scaled ns, raw ns). Traced work
   is sampled only around it, or the interruptions would land inside
   its spans. [~settle] first collects the garbage of earlier
   repetitions, so repeated runs of one call start from the same heap. *)
let on_nominal_host ?(during = true) ?(settle = false) f =
  if settle then Gc.full_major ();
  let before = host_sample () in
  samples_during := [];
  interruptions_ns := 0.0;
  sampling := during;
  if during then set_timer sample_period;
  let x, wall = timed f in
  if during then set_timer 0.0;
  sampling := false;
  let after = host_sample () in
  let dt = wall -. !interruptions_ns in
  let reference = Stats.median (before :: after :: !samples_during) in
  host_factors := (reference_nominal_ns /. reference) :: !host_factors;
  (x, Stats.scaled dt ~reference ~nominal:reference_nominal_ns, dt)

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                              *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let account ~what ~attempted:a ~failed:f =
  attempted := !attempted + a;
  failed := !failed + f;
  Printf.printf "check %-28s %d/%d ok\n" what (a - f) a

(* ------------------------------------------------------------------ *)
(* The declare_standard callback handed to every server                *)
(* ------------------------------------------------------------------ *)

let world_builds = ref 0

(* Every world build goes through here: a server's initial world and
   each per-request sandbox. Under a sink it is its own span, so a trace
   tells the two apart by their ancestors. *)
let declare_standard reg =
  Tel.with_span ~name:"bench.declare_standard" (fun () ->
      Inputs.declare_world reg);
  incr world_builds

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []

(* [base] says what the value was computed from; it is printed, not put
   in the JSON line. *)
let metric ?(base = "") name value =
  if not (Float.is_finite value) then
    failwith ("metric " ^ name ^ " is not a finite number");
  let unit = Catalog.unit_of name in
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "metric %-28s %16.6f %-9s %s\n" name value unit base

let print_result () =
  let ms =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (String.concat ", " ms)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let ratio_metric name ~num ~den =
  metric name
    (if den = 0 then 0.0 else float_of_int num /. float_of_int den)
    ~base:(Printf.sprintf "(%d / %d)" num den)

(* ------------------------------------------------------------------ *)
(* The closed loop: what `gp serve` does per line                      *)
(* ------------------------------------------------------------------ *)

type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Latency samples live outside the OCaml heap, so they neither count in
   the peak heap nor add minor words. A run stops early when full. *)
let sample_capacity = 2_000_000

let render_buf = Buffer.create 4096

let render rsp =
  Buffer.clear render_buf;
  Wire.response_into render_buf rsp

(* One pass over the stream, counting responses that are not ok: the
   streams are error-free, so each one is a wrong answer. *)
let warm_pass server lines =
  let errors = ref 0 in
  Array.iter
    (fun line ->
      match Server.serve_line server line with
      | Some rsp ->
        render rsp;
        if not (Request.ok rsp) then incr errors
      | None -> incr errors)
    lines;
  !errors

type loop = {
  lp_requests : int;
  lp_errors : int;
  lp_rates : float list;  (* scaled requests per second, one per window *)
  lp_raw_rates : float list;
  lp_words : float;  (* minor words over the loop, the reference's excluded *)
  lp_heap : float;  (* peak heap, read before the samples reach the heap *)
  lp_samples : float array;  (* scaled per-request latency, ns *)
  lp_raw_samples : float array;
}

let window_ns = 0.25e9

(* One client: the next line goes out only after the previous response
   has been rendered. Latency is decode to render. The host is sampled
   at every window boundary; a window's samples are scaled by the mean
   of the host samples at its two ends. *)
let closed_loop server lines ~seconds (samples : samples) =
  let n = Array.length lines in
  let budget = seconds *. 1e9 in
  let errors = ref 0 and i = ref 0 and windows = ref [] in
  let w0 = Gc.minor_words () and rw0 = !reference_words in
  let boundary = ref (host_sample ()) in
  let start = now_ns () in
  let last = ref start and win_start = ref start and win_first = ref 0 in
  while !last -. start < budget && !i < sample_capacity do
    let line = Array.unsafe_get lines (!i mod n) in
    let t0 = now_ns () in
    (match Server.serve_line server line with
     | Some rsp ->
       render rsp;
       if not (Request.ok rsp) then incr errors
     | None -> incr errors);
    let t1 = now_ns () in
    Bigarray.Array1.unsafe_set samples !i (t1 -. t0);
    incr i;
    last := t1;
    if t1 -. !win_start >= window_ns then begin
      let r = host_sample () in
      windows := (!win_first, !i, t1 -. !win_start, (!boundary +. r) /. 2.0) :: !windows;
      boundary := r;
      win_first := !i;
      win_start := now_ns ()
    end
  done;
  let words = Gc.minor_words () -. w0 -. (!reference_words -. rw0) in
  let heap = peak_heap_mb () in
  let raw = Array.init !i (fun k -> Bigarray.Array1.get samples k) in
  let scaled = Array.copy raw in
  let scale_range first stop reference =
    for k = first to stop - 1 do
      scaled.(k) <- Stats.scaled scaled.(k) ~reference ~nominal:reference_nominal_ns
    done
  in
  scale_range !win_first !i !boundary;
  List.iter (fun (first, stop, _, reference) -> scale_range first stop reference) !windows;
  let rate ~scale (first, stop, dt, reference) =
    let dt = if scale then Stats.scaled dt ~reference ~nominal:reference_nominal_ns else dt in
    float_of_int (stop - first) *. 1e9 /. dt
  in
  let windows =
    if !windows = [] then [ (0, !i, !last -. start, !boundary) ] else !windows
  in
  { lp_requests = !i;
    lp_errors = !errors;
    lp_rates = List.map (rate ~scale:true) windows;
    lp_raw_rates = List.map (rate ~scale:false) windows;
    lp_words = words;
    lp_heap = heap;
    lp_samples = scaled;
    lp_raw_samples = raw }

let report_latency ~leg lp =
  let pct name q =
    let p = Stats.percentile lp.lp_samples q in
    metric name (p.Stats.pc_value /. 1e3)
      ~base:
        (Printf.sprintf "(%s%d samples, %d beyond; raw %.3f)" leg p.Stats.pc_samples
           p.Stats.pc_beyond
           ((Stats.percentile lp.lp_raw_samples q).Stats.pc_value /. 1e3))
  in
  pct "latency_p50_us" 0.50;
  pct "latency_p99_us" 0.99

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* Server.create (the standard world) plus the warm-up pass that fills
   the caches, done [reps] times; the last server is kept. *)
let serve_setup ?(reps = setup_reps) ~config lines =
  let last = ref None in
  let times =
    List.init reps (fun _ ->
        let (server, errors), scaled, raw =
          on_nominal_host (fun () ->
              let server = Server.create ~config ~declare_standard () in
              (server, warm_pass server lines))
        in
        account ~what:"warm-up pass" ~attempted:(Array.length lines) ~failed:errors;
        last := Some server;
        (scaled, raw))
  in
  (Option.get !last, times)

(* Input and config construction plus the replicas' initial world
   builds, each replica's being one Server.create as in Cluster.run. *)
let cluster_setup name ~seed =
  List.init setup_reps (fun _ ->
      let (), scaled, raw =
        on_nominal_host (fun () ->
            match Inputs.build name ~seed with
            | Some (Inputs.Cluster c) ->
              for _ = 1 to c.Inputs.cl_config.Cluster.replicas do
                ignore
                  (Server.create ~config:c.Inputs.cl_config.Cluster.server_config
                     ~declare_standard ())
              done
            | _ -> assert false)
      in
      (scaled, raw))

let report_setup times =
  metric "setup_s" (ns_to_s (Stats.median (List.map fst times)))
    ~base:
      (Printf.sprintf "(median of %d; raw %s s)" (List.length times)
         (String.concat " "
            (List.map (fun (_, raw) -> Printf.sprintf "%.4f" (ns_to_s raw)) times)))

let lines_of reqs = Array.map (fun r -> Wire.request_to_line r) reqs

(* ------------------------------------------------------------------ *)
(* Correctness replays                                                  *)
(* ------------------------------------------------------------------ *)

(* Re-serve the whole stream, one flight-recorder ring at a time: serve
   a ring's worth of lines on [server], then replay the ring's dossiers
   on a fresh server. Every fingerprint must match. Returns (dossiers
   replayed, scaled ns, raw ns, replays). *)
let flight_audit server lines =
  let ring =
    match Server.flight server with
    | Some r -> r
    | None -> failwith "serve workload without a flight recorder"
  in
  let cap = Recorder.capacity ring in
  let n = Array.length lines in
  let chunks = (n + cap - 1) / cap in
  let errors = ref 0 and replayed = ref 0 and matched = ref 0 in
  let scaled = ref 0.0 and raw = ref 0.0 in
  for c = 0 to chunks - 1 do
    let first = c * cap in
    errors := !errors + warm_pass server (Array.sub lines first (min cap (n - first)));
    let outcome, s, r =
      on_nominal_host (fun () -> Flight.replay ~declare_standard (Recorder.dossiers ring))
    in
    scaled := !scaled +. s;
    raw := !raw +. r;
    match outcome with
    | Ok o ->
      replayed := !replayed + o.Flight.rep_total;
      matched := !matched + o.Flight.rep_matched
    | Error m ->
      Printf.printf "flight replay failed: %s\n" m;
      incr replayed
  done;
  account ~what:"stream served in rings" ~attempted:n ~failed:!errors;
  account ~what:"flight replay" ~attempted:!replayed ~failed:(!replayed - !matched);
  (!replayed, !scaled, !raw, chunks)

let check_cluster (r : Cluster.result) (au : Cluster.audit) =
  let total = Array.length r.Cluster.r_requests in
  let identity =
    au.Cluster.au_compared + au.Cluster.au_missing + au.Cluster.au_shed
    = au.Cluster.au_total
    && au.Cluster.au_total = total
  in
  account ~what:"cluster audit" ~attempted:total
    ~failed:
      (au.Cluster.au_missing
      + List.length au.Cluster.au_divergences
      + if identity then 0 else 1)

(* ------------------------------------------------------------------ *)
(* End-to-end runs (--trace 0)                                          *)
(* ------------------------------------------------------------------ *)

let rate_metric name ~what ~count runs =
  let rate t = float_of_int count *. 1e9 /. t in
  metric name (Stats.median (List.map (fun (s, _) -> rate s) runs))
    ~base:
      (Printf.sprintf "(%s, %d requests, median of %d; raw %.0f)" what count
         (List.length runs)
         (Stats.median (List.map (fun (_, r) -> rate r) runs)))

let timed_serve (s : Inputs.serve) ~seconds samples =
  let lines = s.Inputs.sv_lines in
  let server, setup = serve_setup ~config:s.Inputs.sv_config lines in
  let lp = closed_loop server lines ~seconds samples in
  account ~what:"closed loop" ~attempted:lp.lp_requests ~failed:lp.lp_errors;
  metric "throughput_rps" (Stats.median lp.lp_rates)
    ~base:
      (Printf.sprintf "(median of %d windows of %.2fs, %d requests; raw %.0f)"
         (List.length lp.lp_rates) (ns_to_s window_ns) lp.lp_requests
         (Stats.median lp.lp_raw_rates));
  report_latency ~leg:"" lp;
  metric "minor_words_per_req"
    (Stats.per_request lp.lp_words ~requests:lp.lp_requests)
    ~base:(Printf.sprintf "(%.0f words / %d requests)" lp.lp_words lp.lp_requests);
  let count, scaled, raw, chunks = flight_audit server lines in
  rate_metric "audit_rps"
    ~what:(Printf.sprintf "flight replay of the stream in %d rings" chunks)
    ~count [ (scaled, raw) ];
  metric "peak_heap_mb" lp.lp_heap;
  report_setup setup

(* Cluster repetitions take this share of the run, or stop at
   [cluster_reps]; the single-node closed loop over the same stream
   takes the rest. *)
let cluster_share = 0.6
let cluster_reps = 12

let timed_cluster name (c : Inputs.cluster) ~seed ~seconds samples =
  let setup = cluster_setup name ~seed in
  let reqs = c.Inputs.cl_reqs and config = c.Inputs.cl_config in
  let n = Array.length reqs in
  let budget = seconds *. cluster_share *. 1e9 in
  let start = now_ns () in
  let runs = ref [] and audits = ref [] and heap = ref 0.0 and first = ref None in
  while !runs = [] || (now_ns () -. start < budget && List.length !runs < cluster_reps) do
    (* a forced collection raises the heap's high-water mark, so the
       first repetition runs unsettled and the peak is read after it *)
    let settle = !runs <> [] in
    let (r, words), run_scaled, run_raw =
      on_nominal_host ~settle (fun () ->
          let w0 = Gc.minor_words () and rw0 = !reference_words in
          let r = Cluster.run ~config ~declare_standard reqs in
          (r, Gc.minor_words () -. w0 -. (!reference_words -. rw0)))
    in
    runs := ((run_scaled, run_raw), words) :: !runs;
    (* Every other run is audited. Cluster.run is deterministic, so the
       runs between are checked record for record against the first *)
    if List.length !runs mod 2 = 1 then begin
      let au, audit_scaled, audit_raw =
        on_nominal_host ~settle (fun () -> Cluster.audit ~declare_standard r)
      in
      check_cluster r au;
      audits := (audit_scaled, audit_raw) :: !audits
    end
    else begin
      let same = ref 0 in
      Array.iteri
        (fun i rc -> if rc = (Option.get !first).Cluster.r_records.(i) then incr same)
        r.Cluster.r_records;
      account ~what:"run = first audited run" ~attempted:n ~failed:(n - !same)
    end;
    if not settle then begin
      heap := peak_heap_mb ();
      first := Some r
    end
  done;
  let heap = !heap in
  let runs = !runs in
  rate_metric "throughput_rps" ~what:"Cluster.run" ~count:n (List.map fst runs);
  rate_metric "audit_rps" ~what:"Cluster.audit" ~count:n !audits;
  metric "minor_words_per_req"
    (Stats.median (List.map (fun (_, w) -> Stats.per_request w ~requests:n) runs))
    ~base:(Printf.sprintf "(over Cluster.run, %d requests, median of %d)" n (List.length runs));
  (* the same stream through the gp serve loop on one node *)
  let lines = lines_of reqs in
  let server, _ = serve_setup ~reps:1 ~config:config.Cluster.server_config lines in
  let rest = Float.max (seconds *. (1.0 -. cluster_share)) (seconds -. ns_to_s (now_ns () -. start)) in
  let lp = closed_loop server lines ~seconds:rest samples in
  account ~what:"single-node loop" ~attempted:lp.lp_requests ~failed:lp.lp_errors;
  report_latency ~leg:"single-node loop, " lp;
  metric "peak_heap_mb" heap;
  report_setup setup

(* ------------------------------------------------------------------ *)
(* Per-layer runs (--trace 1)                                           *)
(* ------------------------------------------------------------------ *)

let clock () = now_ns ()

(* Rings are sized from the request count; the most any workload
   records is about six spans per request. *)
let spans_per_request = 16

let dropped_total = ref 0

(* [f] under a fresh wall-clock sink, on the nominal host:
   (result, spans, counters, host factor). A dropped span would make
   every per-layer sum partial, so it ends the run. *)
let with_sink ~requests f =
  let (r, spans, m), scaled, raw =
    on_nominal_host ~during:false (fun () ->
        Tel.with_installed ~clock ~trace_capacity:(spans_per_request * requests)
          (fun sink ->
            let r = f () in
            let dropped = Trace.dropped sink.Tel.trace in
            Printf.printf "trace: %d spans recorded, %d dropped\n"
              (Trace.recorded sink.Tel.trace) dropped;
            dropped_total := !dropped_total + dropped;
            if dropped > 0 then begin
              prerr_endline "span ring too small: per-layer sums would be partial";
              exit 3
            end;
            (r, Trace.spans sink.Tel.trace, sink.Tel.metrics)))
  in
  (r, spans, m, scaled /. raw)

let name_is n (sp : Trace.span) = String.equal sp.Trace.sp_name n

let sum_dur pred spans =
  List.fold_left
    (fun acc (sp : Trace.span) -> if pred sp then acc +. sp.Trace.sp_dur_ns else acc)
    0.0 spans

let kernel_names =
  [ "concepts.check"; "concepts.closure"; "stllint.check";
    "simplicissimus.rewrite"; "structla.detect" ]

let is_structla_kernel (sp : Trace.span) =
  let n = sp.Trace.sp_name in
  String.starts_with ~prefix:"structla." n && not (String.equal n "structla.detect")

let is_kernel sp = List.exists (fun n -> name_is n sp) kernel_names || is_structla_kernel sp

let by_id spans =
  let h = Hashtbl.create (List.length spans) in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace h sp.Trace.sp_id sp) spans;
  h

let rec nearest_ancestor h pred (sp : Trace.span) =
  match Option.bind sp.Trace.sp_parent (Hashtbl.find_opt h) with
  | None -> None
  | Some parent when pred parent -> Some parent
  | Some parent -> nearest_ancestor h pred parent

(* World builds inside a served request are sandboxes; the rest are
   servers' initial worlds. *)
let sandboxes spans =
  let h = by_id spans in
  List.filter
    (fun sp ->
      name_is "bench.declare_standard" sp
      && Option.is_some (nearest_ancestor h (name_is "service.request") sp))
    spans

let counter m name = Tmetrics.total m name

(* Per-request report of a sum; times are scaled by the host factor,
   counts are passed [~factor:1.0]. *)
let per ~requests ~factor ?(base = "") name total =
  metric name (Stats.per_request (total *. factor) ~requests)
    ~base:(Printf.sprintf "(%.0f / %d requests)%s" total requests base)

(* Kernel spans and counters, the sandboxes and the index rebuilds of
   the traced work. *)
let report_dispatch_and_kernels ~requests ~factor spans m =
  let time = per ~requests ~factor and count = per ~requests ~factor:1.0 in
  let dur name = sum_dur (name_is name) spans in
  let sb = sandboxes spans in
  count "dispatch.sandboxes" (float_of_int (List.length sb));
  time "dispatch.sandbox_ns" (sum_dur (fun _ -> true) sb);
  count "registry.index_rebuilds" (counter m "gp_registry_index_rebuilds_total");
  time "concepts.check_ns" (dur "concepts.check");
  time "concepts.closure_ns" (dur "concepts.closure");
  time "stllint.check_ns" (dur "stllint.check");
  time "simplicissimus.rewrite_ns" (dur "simplicissimus.rewrite");
  time "structla.detect_ns" (dur "structla.detect");
  time "structla.kernel_ns" (sum_dur is_structla_kernel spans);
  count "simplicissimus.steps" (counter m "gp_engine_steps_total");
  count "stllint.symbolic_steps" (counter m "gp_lint_symbolic_steps_total");
  count "structla.kernel_calls" (counter m "gp_structla_kernel_total")

(* The decomposed closed loop: each call into a layer in its own span,
   minor words counted around the call itself. *)
let serve_pass server lines words =
  let errors = ref 0 in
  let layer i name f =
    Tel.with_span ~name (fun () ->
        let w0 = Gc.minor_words () in
        let r = f () in
        words.(i) <- words.(i) +. (Gc.minor_words () -. w0);
        r)
  in
  Array.iter
    (fun line ->
      match layer 0 "bench.decode" (fun () -> Wire.request_of_line line) with
      | Error _ -> incr errors
      | Ok (id, req) ->
        let rsp = layer 1 "bench.handle" (fun () -> Server.handle ?id server req) in
        if not (Request.ok rsp) then incr errors;
        layer 2 "bench.render" (fun () -> render rsp);
        ignore (layer 3 "bench.digest" (fun () -> Request.response_fingerprint rsp)))
    lines;
  !errors

(* Untraced then traced decomposed passes over [lines] on a warm server:
   the wire, server, digest and LRU layers, and with [~kernels] the
   dispatch and kernel layers too. Words come from the untraced pass, so
   telemetry's own allocation is not in them. *)
let traced_serve_layers ~kernels server lines =
  let n = Array.length lines in
  let words = Array.make 4 0.0 in
  account ~what:"untraced pass" ~attempted:n ~failed:(serve_pass server lines words);
  let lru_before = Server.cache_stats server in
  let errors, spans, m, factor =
    with_sink ~requests:n (fun () -> serve_pass server lines (Array.make 4 0.0))
  in
  account ~what:"traced pass" ~attempted:n ~failed:errors;
  let time = per ~requests:n ~factor and count = per ~requests:n ~factor:1.0 in
  let dur name = sum_dur (name_is name) spans in
  time "wire.decode_ns" (dur "bench.decode");
  count "wire.decode_words" words.(0) ~base:" untraced pass";
  time "wire.render_ns" (dur "bench.render");
  count "wire.render_words" words.(2) ~base:" untraced pass";
  time "request.digest_ns" (dur "bench.digest");
  time "server.handle_ns" (dur "bench.handle");
  count "server.handle_words" words.(1) ~base:" untraced pass";
  let h = by_id spans in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if is_kernel sp || name_is "bench.declare_standard" sp then
        match nearest_ancestor h (name_is "bench.handle") sp with
        | Some hd ->
          let id = hd.Trace.sp_id in
          Hashtbl.replace children id
            (sp :: Option.value ~default:[] (Hashtbl.find_opt children id))
        | None -> ())
    spans;
  let self =
    List.fold_left
      (fun acc sp ->
        if name_is "bench.handle" sp then
          acc
          +. Stats.self_time sp
               (Option.value ~default:[] (Hashtbl.find_opt children sp.Trace.sp_id))
        else acc)
      0.0 spans
  in
  time "server.self_ns" self ~base:" handle minus kernels and sandboxes";
  let lru =
    List.map2
      (fun (b : Lru.stats) (a : Lru.stats) ->
        ( a.Lru.st_name,
          a.Lru.st_hits - b.Lru.st_hits,
          a.Lru.st_misses - b.Lru.st_misses,
          a.Lru.st_evictions - b.Lru.st_evictions ))
      lru_before (Server.cache_stats server)
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 lru in
  let hits = sum (fun (_, h, _, _) -> h) and misses = sum (fun (_, _, m, _) -> m) in
  ratio_metric "lru.hit_ratio" ~num:hits ~den:(hits + misses);
  List.iter
    (fun (name, h, m, _) -> ratio_metric ("lru." ^ name ^ ".hit_ratio") ~num:h ~den:(h + m))
    lru;
  count "lru.evictions" (float_of_int (sum (fun (_, _, _, e) -> e)));
  if kernels then report_dispatch_and_kernels ~requests:n ~factor spans m

(* Traced over untraced throughput of the same fixed work, run in
   alternating pairs until [seconds] are spent (at least three pairs);
   medians of each side. Pairs are adjacent in time, so host drift
   cancels without scaling. *)
let overhead ~seconds ~requests ~untraced ~traced =
  let start = now_ns () in
  let pairs = ref [] in
  while List.length !pairs < 3 || now_ns () -. start < seconds *. 1e9 do
    let u = snd (timed untraced) in
    let t =
      snd
        (timed (fun () ->
             Tel.with_installed ~clock ~trace_capacity:(spans_per_request * requests)
               traced))
    in
    pairs := (u, t) :: !pairs
  done;
  let u = Stats.median (List.map fst !pairs) in
  let t = Stats.median (List.map snd !pairs) in
  metric "trace.overhead_ratio" (u /. t)
    ~base:
      (Printf.sprintf "(untraced %.4fs / traced %.4fs, medians of %d pairs)" (ns_to_s u)
         (ns_to_s t) (List.length !pairs))

let traced_serve (s : Inputs.serve) ~seconds =
  let lines = s.Inputs.sv_lines in
  let n = Array.length lines in
  let server, _ = serve_setup ~reps:1 ~config:s.Inputs.sv_config lines in
  traced_serve_layers ~kernels:true server lines;
  let passes = ref 0 and errors = ref 0 in
  let pass _ =
    incr passes;
    errors := !errors + serve_pass server lines (Array.make 4 0.0)
  in
  overhead ~seconds ~requests:n ~untraced:pass ~traced:pass;
  account ~what:"overhead passes" ~attempted:(!passes * n) ~failed:!errors;
  (* the flight replay installs a sink of its own, so it is timed whole *)
  let builds0 = !world_builds in
  let count, scaled, _, chunks = flight_audit server lines in
  let sandboxes = !world_builds - builds0 - chunks (* each replay's fresh world *) in
  metric "audit.service_ns" (scaled /. float_of_int count)
    ~base:(Printf.sprintf "(flight replay wall %.0f ns / %d dossiers)" scaled count);
  ratio_metric "audit.sandboxes" ~num:sandboxes ~den:count;
  List.iter
    (fun name -> metric name 0.0 ~base:"(no simulated cluster on serve workloads)")
    Catalog.cluster_only

let traced_cluster (c : Inputs.cluster) ~seconds =
  let reqs = c.Inputs.cl_reqs and config = c.Inputs.cl_config in
  let n = Array.length reqs in
  let runs = ref 0 and incomplete = ref 0 in
  let run config _ =
    let r = Cluster.run ~config ~declare_standard reqs in
    incr runs;
    incomplete := !incomplete + n - r.Cluster.r_completed
  in
  let traced = { config with Cluster.trace = true } in
  overhead ~seconds ~requests:n ~untraced:(run config) ~traced:(run traced);
  account ~what:"overhead runs completed" ~attempted:(!runs * n) ~failed:!incomplete;
  let (r, run_ns), spans, m, factor =
    with_sink ~requests:n (fun () ->
        timed (fun () -> Cluster.run ~config:traced ~declare_standard reqs))
  in
  let time = per ~requests:n ~factor and count = per ~requests:n ~factor:1.0 in
  let service = sum_dur (name_is "service.request") spans in
  time "cluster.service_ns" service;
  time "cluster.sim_ns" (run_ns -. service)
    ~base:(Printf.sprintf " = run wall %.0f ns - service" run_ns);
  report_dispatch_and_kernels ~requests:n ~factor spans m;
  let em = r.Cluster.r_metrics in
  count "distsim.events" (float_of_int em.Gp_distsim.Engine.events);
  count "distsim.messages" (float_of_int em.Gp_distsim.Engine.messages_sent);
  count "node.serves" (counter m "gp_cluster_serves_total");
  count "node.retries" (counter m "gp_cluster_retries_total");
  metric "node.elections" (float_of_int r.Cluster.r_elections) ~base:"(per run)";
  metric "router.peak_queue" (float_of_int r.Cluster.r_peak_inflight) ~base:"(per run)";
  let att =
    Attribution.summarize
      (Attribution.of_journeys
         (Gp_tracing.Trace_set.journeys (Gp_tracing.Trace_set.of_result r)))
  in
  let sim_base =
    Printf.sprintf "(mean over %d attributed requests)" att.Attribution.su_requests
  in
  metric "router.queue_wait_sim" att.Attribution.su_mean_queue ~base:sim_base;
  metric "node.retry_sim" att.Attribution.su_mean_retry ~base:sim_base;
  metric "node.service_sim" att.Attribution.su_mean_service ~base:sim_base;
  let served =
    Printf.sprintf "(%d served records)" (r.Cluster.r_completed - Cluster.shed_total r)
  in
  metric "sim_latency_p50" (Cluster.latency_percentile r 0.5) ~base:served;
  metric "sim_latency_p99" (Cluster.latency_percentile r 0.99) ~base:served;
  ratio_metric "shed_ratio" ~num:(Cluster.shed_total r) ~den:r.Cluster.r_completed;
  let au, audit_spans, _, audit_factor =
    with_sink ~requests:n (fun () -> Cluster.audit ~declare_standard r)
  in
  check_cluster r au;
  let compared = au.Cluster.au_compared in
  metric "audit.service_ns"
    (Stats.per_request
       (audit_factor *. sum_dur (name_is "service.request") audit_spans)
       ~requests:compared)
    ~base:(Printf.sprintf "(service.request spans / %d compared)" compared);
  ratio_metric "audit.sandboxes" ~num:(List.length (sandboxes audit_spans)) ~den:compared;
  (* wire, server and LRU layers: the same stream through the gp serve
     loop on one node *)
  let lines = lines_of reqs in
  let server, _ = serve_setup ~reps:1 ~config:config.Cluster.server_config lines in
  traced_serve_layers ~kernels:false server lines

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let input =
    match Inputs.build !workload ~seed:!seed with
    | Some i -> i
    | None ->
      Printf.eprintf "unknown workload %S (want one of %s)\n" !workload
        (String.concat ", " Inputs.names);
      exit 2
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload !seed !seconds !trace;
  Printf.printf "input fingerprint %s (%d requests)\n" (Inputs.fingerprint input)
    (Array.length (Inputs.requests input));
  let samples () =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout sample_capacity
  in
  (match (input, !trace) with
   | Inputs.Serve s, 0 -> timed_serve s ~seconds:!seconds (samples ())
   | Inputs.Cluster c, 0 ->
     timed_cluster !workload c ~seed:!seed ~seconds:!seconds (samples ())
   | Inputs.Serve s, _ -> traced_serve s ~seconds:!seconds
   | Inputs.Cluster c, _ -> traced_cluster c ~seconds:(!seconds /. 2.0));
  let ratio = Stats.failure_ratio ~failed:!failed ~attempted:!attempted in
  if !trace <> 0 then begin
    metric "trace.dropped_spans" (float_of_int !dropped_total);
    metric "failed_ratio" ratio ~base:(Printf.sprintf "(%d / %d)" !failed !attempted)
  end
  else Printf.printf "failed_ratio %.6f (%d / %d)\n" ratio !failed !attempted;
  (match !host_factors with
   | [] -> ()
   | fs ->
     Printf.printf "host: times scaled by %.3f (median of %d samples; nominal reference %.0f ns)\n"
       (Stats.median fs) (List.length fs) reference_nominal_ns);
  (* every declared metric exactly once, or no result at all *)
  let declared = if !trace <> 0 then Catalog.per_layer else Catalog.end_to_end in
  let emitted = List.sort compare (List.map (fun (n, _, _) -> n) !metrics) in
  if emitted <> List.sort compare (List.map fst declared) then begin
    prerr_endline "metric set differs from the catalog";
    exit 3
  end;
  print_result ();
  if !failed > 0 then exit 1
