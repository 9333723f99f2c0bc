(* Every metric the benchmark prints, with its unit. BENCHMARK.json
   declares the same names and units; the tests hold the two equal. *)

let end_to_end =
  [ ("throughput_rps", "req/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("audit_rps", "req/s");
    ("minor_words_per_req", "words/req");
    ("peak_heap_mb", "MB");
    ("setup_s", "s") ]

let caches = [ "closures"; "defs"; "lint"; "cert"; "proofs"; "rewrites"; "numerics" ]

let per_layer =
  [ ("wire.decode_ns", "ns/req");
    ("wire.decode_words", "words/req");
    ("wire.render_ns", "ns/req");
    ("wire.render_words", "words/req");
    ("request.digest_ns", "ns/req");
    ("server.handle_ns", "ns/req");
    ("server.handle_words", "words/req");
    ("server.self_ns", "ns/req");
    ("dispatch.sandboxes", "1/req");
    ("dispatch.sandbox_ns", "ns/req");
    ("registry.index_rebuilds", "1/req");
    ("lru.hit_ratio", "ratio") ]
  @ List.map (fun c -> ("lru." ^ c ^ ".hit_ratio", "ratio")) caches
  @ [ ("lru.evictions", "1/req");
      ("concepts.check_ns", "ns/req");
      ("concepts.closure_ns", "ns/req");
      ("stllint.check_ns", "ns/req");
      ("simplicissimus.rewrite_ns", "ns/req");
      ("structla.detect_ns", "ns/req");
      ("structla.kernel_ns", "ns/req");
      ("simplicissimus.steps", "1/req");
      ("stllint.symbolic_steps", "1/req");
      ("structla.kernel_calls", "1/req");
      ("cluster.service_ns", "ns/req");
      ("cluster.sim_ns", "ns/req");
      ("distsim.events", "1/req");
      ("distsim.messages", "1/req");
      ("node.serves", "1/req");
      ("node.retries", "1/req");
      ("node.elections", "count");
      ("router.peak_queue", "count");
      ("router.queue_wait_sim", "sim");
      ("node.retry_sim", "sim");
      ("node.service_sim", "sim");
      ("sim_latency_p50", "sim");
      ("sim_latency_p99", "sim");
      ("shed_ratio", "ratio");
      ("audit.service_ns", "ns/req");
      ("audit.sandboxes", "1/req");
      ("trace.overhead_ratio", "ratio");
      ("trace.dropped_spans", "count");
      ("failed_ratio", "ratio") ]

(* The per-layer metrics of the simulated cluster, which a serve
   workload does not run. *)
let cluster_only =
  [ "cluster.service_ns"; "cluster.sim_ns"; "distsim.events"; "distsim.messages";
    "node.serves"; "node.retries"; "node.elections"; "router.peak_queue";
    "router.queue_wait_sim"; "node.retry_sim"; "node.service_sim";
    "sim_latency_p50"; "sim_latency_p99"; "shed_ratio" ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Catalog.unit_of: undeclared metric " ^ name)
