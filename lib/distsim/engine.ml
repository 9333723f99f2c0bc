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
(* Event queue: binary heap on (time, seq) for determinism             *)
(* ------------------------------------------------------------------ *)

module Eq = struct
  type 'msg ev = {
    t : float;
    seq : int;
    src : int;
    dst : int;
    msg : 'msg;
    tmr : bool; (* a self-scheduled timer, outside the message metrics *)
  }

  type 'msg t = { mutable a : 'msg ev array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let lt x y = x.t < y.t || (x.t = y.t && x.seq < y.seq)

  let push q ev =
    if q.len = Array.length q.a then begin
      let cap = max 16 (2 * q.len) in
      let fresh = Array.make cap ev in
      Array.blit q.a 0 fresh 0 q.len;
      q.a <- fresh
    end;
    q.a.(q.len) <- ev;
    q.len <- q.len + 1;
    let i = ref (q.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt q.a.(!i) q.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = q.a.(p) in
      q.a.(p) <- q.a.(!i);
      q.a.(!i) <- tmp;
      i := p
    done

  let is_empty q = q.len = 0

  (* The earliest event; [q] must not be empty. *)
  let pop q =
    let top = q.a.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.a.(0) <- q.a.(q.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && lt q.a.(l) q.a.(!smallest) then smallest := l;
        if r < q.len && lt q.a.(r) q.a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = q.a.(!smallest) in
          q.a.(!smallest) <- q.a.(!i);
          q.a.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    top
end

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

(* The simulation core is untouched by telemetry: the RNG stream, event
   order and metrics are computed exactly as before, and the wrapper only
   reads the finished result — identical transcripts per seed with a sink
   installed or not (the transparency property tests pin this down). *)
let run_core (type s m) ~(config : m config) (topo : Topology.t)
    (algo : (s, m) algorithm) : result =
  let n = Topology.num_nodes topo in
  let rng = Random.State.make [| config.seed |] in
  let queue : m Eq.t = Eq.create () in
  let seq = ref 0 in
  let now = ref 0.0 in
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
  let partitioned src dst =
    List.exists
      (fun (island, from_, until) ->
        !now >= from_ && !now < until && island.(src) <> island.(dst))
      !partitions
  in
  let is_crashed node = !now >= crashed_at.(node) in
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
        match Hashtbl.find_opt byzantine src with
        | Some corrupt -> corrupt msg
        | None -> msg
      in
      if partitioned src dst then incr dropped
      else if !drop_prob > 0.0 && Random.State.float rng 1.0 < !drop_prob then
        incr dropped
      else begin
        incr seq;
        Eq.push queue
          { Eq.t = !now +. delay (); seq = !seq; src; dst; msg; tmr = false }
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
        { Eq.t = !now +. Float.max 1e-9 delay; seq = !seq; src = i; dst = i;
          msg; tmr = true }
    end
  in
  let ctx_of i =
    {
      self = i;
      neighbors = Topology.neighbors topo i;
      now = (fun () -> !now);
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
      let ev = Eq.pop queue in
      now := ev.Eq.t;
      incr events;
      if !now > config.max_time || !events > config.max_events then
        continue := false
      else if (not (is_crashed ev.Eq.dst)) && not halted.(ev.Eq.dst) then begin
        if not ev.Eq.tmr then begin
          incr delivered;
          delivered_to.(ev.Eq.dst) <- delivered_to.(ev.Eq.dst) + 1
        end;
        states.(ev.Eq.dst) <-
          algo.on_message ctxs.(ev.Eq.dst) states.(ev.Eq.dst)
            ~src:ev.Eq.src ev.Eq.msg
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
        finish_time = !now;
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
