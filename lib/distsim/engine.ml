(* The deterministic discrete-event message-passing simulator.

   This is the testbed substitute for the paper's Section 4: it executes
   distributed algorithms as state machines exchanging messages under a
   chosen timing model, with seeded failure injection, and it *accounts for
   local computation* — the cost the paper complains is "rarely accounted
   for" in the literature — alongside message and time metrics. Identical
   seeds give identical runs. *)

(* ------------------------------------------------------------------ *)
(* Timing models (taxonomy dimension 6)                                *)
(* ------------------------------------------------------------------ *)

type timing =
  | Synchronous (* every message takes exactly 1 time unit *)
  | Asynchronous of { max_delay : float } (* uniform (0, max_delay] *)
  | Partially_synchronous of { bound : float } (* uniform (0, bound], known *)

(* ------------------------------------------------------------------ *)
(* Failure models (taxonomy dimension 3)                               *)
(* ------------------------------------------------------------------ *)

type 'msg failure =
  | Crash of { node : int; at : float } (* crash-stop at time [at] *)
  | Drop_links of { prob : float } (* each message dropped with prob *)
  | Byzantine of { node : int; corrupt : 'msg -> 'msg }
  | Partition of { groups : int list list; from_ : float; until : float }
      (* network partition active while from_ <= now < until: listed
         groups are islands, unlisted nodes together form one implicit
         island, and messages crossing islands are dropped (no RNG
         draw, so runs without partitions keep their exact stream) *)

type 'msg config = {
  timing : timing;
  failures : 'msg failure list;
  seed : int;
  max_time : float; (* safety horizon *)
  max_events : int;
}

let default_config =
  { timing = Synchronous; failures = []; seed = 42; max_time = 1e6;
    max_events = 2_000_000 }

(* ------------------------------------------------------------------ *)
(* The process interface                                               *)
(* ------------------------------------------------------------------ *)

(* Handlers receive a context with the node's identity and neighbourhood,
   plus effect functions: [send] enqueues a message to a neighbour,
   [charge] accounts local computation steps, [decide] records the node's
   output, [halt] stops the node, [timer] schedules a message back to
   this node after a chosen simulated delay (a local alarm clock: not a
   network message, so it is exempt from drops, corruption and
   partitions, draws no RNG, and stays out of the message metrics). *)
type 'msg ctx = {
  self : int;
  neighbors : int list;
  now : unit -> float;
  send : int -> 'msg -> unit;
  timer : delay:float -> 'msg -> unit;
  charge : int -> unit;
  decide : string -> unit;
  halt : unit -> unit;
}

type ('state, 'msg) algorithm = {
  algo_name : string;
  initial : 'msg ctx -> 'state;
  on_message : 'msg ctx -> 'state -> src:int -> 'msg -> 'state;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  local_steps : int array; (* per node *)
  sent_by : int array; (* per-node sends (timers excluded) *)
  delivered_to : int array; (* per-node deliveries (timers excluded) *)
  finish_time : float;
  events : int;
}

let total_local_steps m = Array.fold_left ( + ) 0 m.local_steps
let max_local_steps m = Array.fold_left max 0 m.local_steps

type result = {
  decisions : string option array;
  halted : bool array;
  metrics : metrics;
}

(* ------------------------------------------------------------------ *)
(* Event queue: a slot heap on (time, seq) for determinism             *)
(* ------------------------------------------------------------------ *)

(* A binary min-heap of (time, seq, slot) triples held in parallel
   unboxed arrays and sifted with a hole instead of swaps. An event's
   payload — its message and a word packing src, dst and the timer
   flag — sits in a slot that never moves while the event is queued;
   a popped event's slot goes back on a free stack for the next push.
   So the sifts move only ints and unboxed floats: no pointer write
   and no boxed float per event. Seqs are unique, so (time, seq) is a
   strict total order and the pop order does not depend on the heap's
   layout. *)
module Eq = struct
  type 'msg t = {
    mutable time : float array; (* heap position -> event time *)
    mutable seq : int array; (* heap position -> insertion seq *)
    mutable slot : int array; (* heap position -> payload slot *)
    mutable len : int;
    mutable msg : 'msg array; (* slot -> message *)
    mutable meta : int array; (* slot -> packed src/dst/timer *)
    mutable free : int array; (* stack of vacant slots *)
    mutable nfree : int;
  }

  let create () =
    { time = [||]; seq = [||]; slot = [||]; len = 0; msg = [||];
      meta = [||]; free = [||]; nfree = 0 }

  (* Double every array; the new slots become the free stack (a full
     heap has no vacant slot), lowest on top. *)
  let grow q m =
    let cap = Array.length q.time in
    let cap' = max 16 (2 * cap) in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    q.time <- extend q.time 0.0;
    q.seq <- extend q.seq 0;
    q.slot <- extend q.slot 0;
    q.msg <- extend q.msg m;
    q.meta <- extend q.meta 0;
    q.free <- Array.init cap' (fun i -> cap' - 1 - i);
    q.nfree <- cap' - cap

  let is_empty q = q.len = 0

  (* The earliest event's time; [q] must not be empty. *)
  let[@inline] min_time q = q.time.(0)

  (* The (time, seq) comparisons are written out at each site: passed
     through a helper, even an inlined one, the times get boxed. *)
  let[@inline] push q t seq meta m =
    if q.len = Array.length q.time then grow q m;
    q.nfree <- q.nfree - 1;
    let s = q.free.(q.nfree) in
    q.msg.(s) <- m;
    q.meta.(s) <- meta;
    let i = ref q.len in
    q.len <- q.len + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      t < q.time.(p) || (t = q.time.(p) && seq < q.seq.(p))
    do
      let p = (!i - 1) / 2 in
      q.time.(!i) <- q.time.(p);
      q.seq.(!i) <- q.seq.(p);
      q.slot.(!i) <- q.slot.(p);
      i := p
    done;
    q.time.(!i) <- t;
    q.seq.(!i) <- seq;
    q.slot.(!i) <- s

  (* Remove the earliest event and return its slot, whose [msg] and
     [meta] stay readable until the next push; [q] must not be
     empty. *)
  let pop q =
    let top = q.slot.(0) in
    let n = q.len - 1 in
    q.len <- n;
    if n > 0 then begin
      let t = q.time.(n) and seq = q.seq.(n) and s = q.slot.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (q.time.(r) < q.time.(l)
                 || (q.time.(r) = q.time.(l) && q.seq.(r) < q.seq.(l)))
            then r
            else l
          in
          if q.time.(c) < t || (q.time.(c) = t && q.seq.(c) < seq) then begin
            q.time.(!i) <- q.time.(c);
            q.seq.(!i) <- q.seq.(c);
            q.slot.(!i) <- q.slot.(c);
            i := c
          end
          else continue := false
        end
      done;
      q.time.(!i) <- t;
      q.seq.(!i) <- seq;
      q.slot.(!i) <- s
    end;
    q.free.(q.nfree) <- top;
    q.nfree <- q.nfree + 1;
    top
end

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

(* The simulated clock: an all-float record, so setting it stores an
   unboxed float. *)
type clock = { mutable now : float }

(* An event's src, dst and timer flag packed in one int. *)
let node_bits = 30
let node_mask = (1 lsl node_bits) - 1
let pack ~src ~dst ~tmr = (((src lsl node_bits) lor dst) lsl 1) lor Bool.to_int tmr

(* The simulation core is untouched by telemetry: the RNG stream, event
   order and metrics are computed exactly as before, and the wrapper only
   reads the finished result — identical transcripts per seed with a sink
   installed or not (the transparency property tests pin this down). *)
let run_core (type s m) ~(config : m config) (topo : Topology.t)
    (algo : (s, m) algorithm) : result =
  let n = Topology.num_nodes topo in
  if n > node_mask then invalid_arg "Engine.run: too many nodes";
  let rng = Random.State.make [| config.seed |] in
  let queue : m Eq.t = Eq.create () in
  let seq = ref 0 in
  let clock = { now = 0.0 } in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let events = ref 0 in
  let local = Array.make n 0 in
  let sent_by = Array.make n 0 in
  let delivered_to = Array.make n 0 in
  let decisions = Array.make n None in
  let halted = Array.make n false in
  let crashed_at =
    Array.make n infinity
  in
  let drop_prob = ref 0.0 in
  let byzantine : (int, m -> m) Hashtbl.t = Hashtbl.create 4 in
  (* each partition becomes (island-id per node, window): listed groups
     are islands 0..k-1, everyone unlisted shares the implicit island k *)
  let partitions = ref [] in
  List.iter
    (function
      | Crash { node; at } ->
        if node >= 0 && node < n then crashed_at.(node) <- at
      | Drop_links { prob } -> drop_prob := prob
      | Byzantine { node; corrupt } -> Hashtbl.replace byzantine node corrupt
      | Partition { groups; from_; until } ->
        let island = Array.make n (List.length groups) in
        List.iteri
          (fun i group ->
            List.iter
              (fun node -> if node >= 0 && node < n then island.(node) <- i)
              group)
          groups;
        partitions := (island, from_, until) :: !partitions)
    config.failures;
  let partitions = !partitions and drop_prob = !drop_prob in
  let any_byzantine = Hashtbl.length byzantine > 0 in
  let partitioned src dst =
    partitions <> []
    && List.exists
         (fun (island, from_, until) ->
           clock.now >= from_ && clock.now < until
           && island.(src) <> island.(dst))
         partitions
  in
  let is_crashed node = clock.now >= crashed_at.(node) in
  let delay () =
    match config.timing with
    | Synchronous -> 1.0
    | Asynchronous { max_delay } ->
      let u = Random.State.float rng 1.0 in
      Float.max 1e-6 (u *. max_delay)
    | Partially_synchronous { bound } ->
      let u = Random.State.float rng 1.0 in
      Float.max 1e-6 (u *. bound)
  in
  let send_from src dst msg =
    if (not (is_crashed src)) && not halted.(src) then begin
      incr sent;
      sent_by.(src) <- sent_by.(src) + 1;
      let msg =
        if not any_byzantine then msg
        else
          match Hashtbl.find_opt byzantine src with
          | Some corrupt -> corrupt msg
          | None -> msg
      in
      if partitioned src dst then incr dropped
      else if drop_prob > 0.0 && Random.State.float rng 1.0 < drop_prob then
        incr dropped
      else begin
        incr seq;
        Eq.push queue (clock.now +. delay ()) !seq (pack ~src ~dst ~tmr:false)
          msg
      end
    end
  in
  (* a timer is a local alarm, not a network message: fixed caller-chosen
     delay (no RNG), immune to drops/partitions/corruption, and invisible
     to the message metrics. It still dies with a crashed/halted node. *)
  let timer_at i delay msg =
    if (not (is_crashed i)) && not halted.(i) then begin
      incr seq;
      Eq.push queue
        (clock.now +. Float.max 1e-9 delay)
        !seq
        (pack ~src:i ~dst:i ~tmr:true)
        msg
    end
  in
  let ctx_of i =
    {
      self = i;
      neighbors = Topology.neighbors topo i;
      now = (fun () -> clock.now);
      send = (fun dst msg -> send_from i dst msg);
      timer = (fun ~delay msg -> timer_at i delay msg);
      charge = (fun k -> local.(i) <- local.(i) + k);
      decide = (fun v -> decisions.(i) <- Some v);
      halt = (fun () -> halted.(i) <- true);
    }
  in
  (* one context per node, built once: its effects read the shared
     refs, so every event may reuse it *)
  let ctxs = Array.init n ctx_of in
  (* initialisation round at time 0 *)
  let states = Array.map algo.initial ctxs in
  (* main loop *)
  let continue = ref true in
  while !continue do
    if Eq.is_empty queue then continue := false
    else begin
      clock.now <- Eq.min_time queue;
      let slot = Eq.pop queue in
      incr events;
      if clock.now > config.max_time || !events > config.max_events then
        continue := false
      else begin
        let meta = queue.Eq.meta.(slot) in
        let dst = (meta lsr 1) land node_mask in
        if (not (is_crashed dst)) && not halted.(dst) then begin
          if meta land 1 = 0 then begin
            incr delivered;
            delivered_to.(dst) <- delivered_to.(dst) + 1
          end;
          states.(dst) <-
            algo.on_message ctxs.(dst) states.(dst)
              ~src:(meta lsr (node_bits + 1))
              queue.Eq.msg.(slot)
        end
      end
    end
  done;
  {
    decisions;
    halted;
    metrics =
      {
        messages_sent = !sent;
        messages_delivered = !delivered;
        messages_dropped = !dropped;
        local_steps = local;
        sent_by;
        delivered_to;
        finish_time = clock.now;
        events = !events;
      };
  }

let run ?(config = default_config) topo algo =
  let module Tel = Gp_telemetry.Tel in
  Tel.with_span ~name:"distsim.run"
    ~attrs:(fun () ->
      [
        ("algorithm", algo.algo_name);
        ("nodes", string_of_int (Topology.num_nodes topo));
        ("seed", string_of_int config.seed);
      ])
    (fun () ->
      let r = run_core ~config topo algo in
      if Tel.is_enabled () then begin
        let labels = [ ("algorithm", algo.algo_name) ] in
        Tel.count ~labels "gp_distsim_runs_total" 1;
        Tel.count ~labels "gp_distsim_events_total" r.metrics.events;
        Tel.count ~labels "gp_distsim_messages_sent_total"
          r.metrics.messages_sent;
        Tel.count ~labels "gp_distsim_messages_delivered_total"
          r.metrics.messages_delivered;
        Tel.count ~labels "gp_distsim_messages_dropped_total"
          r.metrics.messages_dropped;
        Tel.count ~labels "gp_distsim_local_steps_total"
          (total_local_steps r.metrics);
        Tel.observe ~labels "gp_distsim_finish_time"
          r.metrics.finish_time;
        Tel.attr "events" (string_of_int r.metrics.events);
        Tel.attr "finish_time" (Printf.sprintf "%.2f" r.metrics.finish_time)
      end;
      r)

let pp_metrics ppf m =
  Fmt.pf ppf
    "msgs sent=%d delivered=%d dropped=%d, time=%.2f, local steps: total=%d \
     max/node=%d"
    m.messages_sent m.messages_delivered m.messages_dropped m.finish_time
    (total_local_steps m) (max_local_steps m)
