open! Import

type config = {
  metric : Metric.kind;
  buffer_packets : int;
  seed : int;
  record_series : bool;
  instant_flooding : bool;
  line_error_rate : float;
  domains : int;
  telemetry : Telemetry.t option;
}

let log_src = Logs.Src.create "routing_sim.network" ~doc:"packet-level simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Data packets: exponentially distributed sizes, 600 bits on average. *)
let packet_size = Workload.Exponential 600.

(* A data packet that has crossed this many links is discarded. *)
let ttl_hops = 64

(* Control packets are retransmitted until acknowledged, on this timer. *)
let retransmit_interval_s = 1.0

let default_config metric =
  { metric;
    buffer_packets = Link_queue.default_buffer_packets;
    seed = 42;
    record_series = true;
    instant_flooding = true;
    line_error_rate = 0.;
    domains = Domain_pool.default_size ();
    telemetry = None }

(* Telemetry handles, resolved once at creation so the hot paths touch
   plain mutable cells.  The [drops] array is indexed by [reason_index]. *)
type obs_state = {
  tele : Telemetry.t;
  obs_sink : Obs_sink.t;
  drops : Obs_metrics.counter array;
  delivered : Obs_metrics.counter;
  floods : Obs_metrics.counter;
  accepts : Obs_metrics.counter;
  recomputes : Obs_metrics.counter;
  on_flag : link:int -> time:float -> flips:int -> unit;
  queue_depth : Obs_metrics.series array;
  cost_hops : Obs_metrics.series array;
      (* flooded cost normalized by the link's idle cost: the paper's
         "reported cost in hops" axis (Figs 5–6) *)
  osc : Obs_oscillation.t;
  spf_gauges : Spf_gauges.t;
}

(* Tiny growable buffer for the per-period expiry sweeps: collect doomed
   keys in one pass over the table, then remove them — no intermediate
   list, and the buffer is reused across periods. *)
type 'a vec = { mutable buf : 'a array; mutable len : int }

let vec_make zero = { buf = Array.make 16 zero; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let buf = Array.make (2 * v.len) v.buf.(0) in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let vec_clear v = v.len <- 0

let reason_index = function
  | Trace.Buffer_full -> 0
  | Trace.Line_down -> 1
  | Trace.Line_error -> 2
  | Trace.No_route -> 3
  | Trace.Ttl -> 4

let make_obs_state tele ~links =
  let m = Telemetry.metrics tele in
  { tele;
    obs_sink = Telemetry.sink tele;
    drops =
      (let arr =
         List.map
           (fun r ->
             Obs_metrics.counter m
               ~labels:[ ("reason", Trace.reason_name r) ]
               "packets_dropped")
           Trace.all_reasons
       in
       Array.of_list arr);
    delivered = Obs_metrics.counter m "packets_delivered";
    floods = Obs_metrics.counter m "updates_flooded";
    accepts = Obs_metrics.counter m "updates_accepted";
    recomputes = Obs_metrics.counter m "tables_recomputed";
    on_flag = Telemetry.oscillation_flag tele;
    queue_depth =
      Array.init links (fun i ->
          Obs_metrics.series m
            ~labels:[ ("link", Printf.sprintf "l%d" i) ]
            "queue_depth");
    cost_hops =
      Array.init links (fun i ->
          Obs_metrics.series m
            ~labels:[ ("link", Printf.sprintf "l%d" i) ]
            "link_cost_hops");
    osc = Telemetry.init_oscillation tele ~links;
    spf_gauges = Spf_gauges.create m }

let count_event o = function
  | Trace.Packet_delivered _ -> Obs_metrics.inc o.delivered
  | Trace.Packet_dropped { reason; _ } ->
    Obs_metrics.inc o.drops.(reason_index reason)
  | Trace.Update_flooded _ -> Obs_metrics.inc o.floods
  | Trace.Update_accepted _ -> Obs_metrics.inc o.accepts
  | Trace.Tables_recomputed _ -> Obs_metrics.inc o.recomputes
  | Trace.Link_state _ -> ()

(* Under hop-by-hop flooding, one PSN's own view of the network: the
   composite weights of the link costs it believes (a down link keeps
   [lnot] of its weight, so the belief survives the outage), its SPF tree,
   exact under those weights and repaired on every update it accepts
   (§2.2), and the forwarding table read off the tree. *)
type view = {
  weights : int array;
  tree : Spf_tree.t;
  table : Routing_table.t;
}

type t = {
  graph : Graph.t;
  config : config;
  engine : Engine.t;
  plane : Control_plane.t; (* the metric, flooders, update grouping *)
  mutable queues : Link_queue.t array;
  measurements : Measurement.t array; (* per link: this period's delays *)
  link_delay : float array; (* per link: the period's average delay *)
  mutable workload : Workload.t option;
  measure : Measure.t;
  min_hops : int array array; (* src * dst, hop count on the up topology *)
  link_up : bool array;
  prev_bits : float array; (* per link, snapshot at last period start *)
  cost_series : Time_series.t array;
  util_series : Time_series.t array;
  (* Forwarding tables, one per PSN, installed once and refreshed in
     place. *)
  tables : Routing_table.t array;
  views : view array; (* per node; empty under instant flooding *)
  repair_scratch : Spf_repair.scratch;
  (* In-flight updates and the latency from origination to each fresh
     acceptance. *)
  in_flight : (int, Update.t * float) Hashtbl.t;
  mutable next_update_token : int;
  (* Rosen-style per-line reliability: a control packet sent on a link
     stays pending until the far end acknowledges it; a timer retransmits
     it meanwhile.  (link id, token) -> still unacknowledged. *)
  pending_acks : (int * int, unit) Hashtbl.t;
  (* Reused per-period expiry-sweep buffers. *)
  doomed_tokens : int vec;
  doomed_acks : (int * int) vec;
  link_rng : Rng.t;
  flood_latency : Welford.t;
  (* Shared SPF engines (instant flooding): per-source route trees on the
     flooded costs, and min-hop trees on the up topology, both refreshed
     by diffing and fanned over the pool. *)
  spf : Spf_engine.t;
  min_spf : Spf_engine.t;
  obs : obs_state option;
  (* The bundle's flight recorder (or {!Tracer.null}) and the span names
     it records, interned once. *)
  tracer : Tracer.t;
  tr_period : int;
  tr_refresh : int;
  tr_flood : int;
  mutable started : bool;
  mutable tables_dirty : bool;
}

(* Every structured event flows through here: into the JSONL sink and
   the labeled counters when telemetry is attached.  Without it this is
   one branch and no allocation. *)
let trace t make_event =
  match t.obs with
  | None -> ()
  | Some o ->
    let time = Engine.now t.engine in
    let event = make_event () in
    count_event o event;
    Obs_sink.emit o.obs_sink (fun () -> Trace.to_json ~time event)

let metric t = Control_plane.metric t.plane

let link_enabled t lid = t.link_up.(Link.id_to_int lid)

let recompute_min_hops t =
  let n = Graph.node_count t.graph in
  Spf_engine.refresh t.min_spf ~enabled:(link_enabled t) ~cost:(fun _ -> 1);
  for src = 0 to n - 1 do
    let tree = Spf_engine.tree t.min_spf (Node.of_int src) in
    for dst = 0 to n - 1 do
      t.min_hops.(src).(dst) <-
        (let d = Node.of_int dst in
         if Spf_tree.reached tree d then Spf_tree.hops tree d else max_int)
    done
  done

(* Apply a node's share of one routing update — its own flooded costs
   or ones it accepted — to its weight table, staging every weight that
   moves for the repair. *)
let rec stage_costs s weights link_up costs =
  match costs with
  | [] -> ()
  | (lid, c) :: rest ->
    let l = Link.id_to_int lid in
    let w = Dijkstra.cost_weight c in
    let new_w = if link_up.(l) then w else lnot w in
    let old_w = weights.(l) in
    if new_w <> old_w then begin
      weights.(l) <- new_w;
      Spf_repair.stage s lid ~old_w ~new_w
    end;
    stage_costs s weights link_up rest
[@@hot_path]

(* Repair a view's tree over the staged changes and refresh its
   forwarding table in place. *)
let repair_view t v =
  ignore
    (Spf_repair.repair_staged t.repair_scratch t.graph ~tree:v.tree
       ~weights:v.weights);
  Routing_table.refresh v.table v.tree
[@@hot_path]

let apply_costs t i costs =
  let v = t.views.(i) in
  stage_costs t.repair_scratch v.weights t.link_up costs;
  repair_view t v
[@@hot_path]

(* Instant flooding: every node routes on the same flooded costs, so one
   engine refresh serves all tables, reusing provably unaffected trees. *)
let install_tables t =
  Tracer.span_begin t.tracer t.tr_refresh;
  Spf_engine.refresh t.spf ~enabled:(link_enabled t)
    ~cost:(Metric.cost_fn (metric t));
  Tracer.span_end t.tracer t.tr_refresh;
  Array.iteri
    (fun i table ->
      Routing_table.refresh table (Spf_engine.tree t.spf (Node.of_int i)))
    t.tables;
  t.tables_dirty <- false

(* Send one in-flight update over a link as a priority control packet and
   keep retransmitting on a timer until the far end acknowledges it. *)
let rec send_control t lid token =
  match Hashtbl.find_opt t.in_flight token with
  | None -> ()
  | Some (u, _) ->
    let link = Graph.link t.graph lid in
    let packet =
      Packet.make ~kind:(Packet.Control token) ~src:link.Link.src
        ~dst:link.Link.dst ~bits:(Update.size_bits u)
        (Engine.now t.engine)
    in
    Measure.record_updates t.measure ~count:0 ~bits:(Update.size_bits u);
    let key = (Link.id_to_int lid, token) in
    Hashtbl.replace t.pending_acks key ();
    Link_queue.enqueue_priority t.queues.(Link.id_to_int lid) packet;
    Engine.schedule t.engine ~after:retransmit_interval_s (fun () ->
        if Hashtbl.mem t.pending_acks key && t.link_up.(Link.id_to_int lid)
        then send_control t lid token)

and send_ack t lid token =
  (* Acknowledge on the reverse of the line the update arrived over. *)
  let back = Graph.reverse t.graph (Graph.link t.graph lid) in
  if t.link_up.(Link.id_to_int back.Link.id) then begin
    let packet =
      Packet.make ~kind:(Packet.Control_ack token) ~src:back.Link.src
        ~dst:back.Link.dst ~bits:48.
        (Engine.now t.engine)
    in
    Measure.record_updates t.measure ~count:0 ~bits:48.;
    Link_queue.enqueue_priority t.queues.(Link.id_to_int back.Link.id) packet
  end

(* A routing update arrives at a node: accept if fresh, apply the costs to
   this node's view, recompute its table, and forward. *)
and deliver_update t node ~via token =
  match Hashtbl.find_opt t.in_flight token with
  | None -> ()
  | Some (u, originated_s) -> (
    let i = Node.to_int node in
    let flooder = Control_plane.flooder t.plane node in
    match Flooder.receive flooder ~arrived_on:(Some via) u with
    | Flooder.Duplicate -> ()
    | Flooder.Fresh forward ->
      Welford.add t.flood_latency (Engine.now t.engine -. originated_s);
      trace t (fun () ->
          Trace.Update_accepted
            { at = node;
              origin = u.Update.origin;
              latency_s = Engine.now t.engine -. originated_s });
      apply_costs t i u.Update.costs;
      trace t (fun () -> Trace.Tables_recomputed { at = node });
      List.iter (fun lid -> send_control t lid token) forward)

(* Forwarding: deliver locally, or hand to the next hop's transmitter. *)
and handle_arrival t (packet : Packet.t) node =
  match packet.Packet.kind with
  | Packet.Control token -> (
    (* Control packets are consumed and re-issued hop by hop; [src] names
       the tail of the link they just crossed.  Receipt is acknowledged at
       the line level whether or not the update is fresh. *)
    match Graph.find_link t.graph ~src:packet.Packet.src ~dst:node with
    | Some l ->
      send_ack t l.Link.id token;
      deliver_update t node ~via:l.Link.id token
    | None -> ())
  | Packet.Control_ack token -> (
    (* The ack for our transmission on the reverse of the arrival link. *)
    match Graph.find_link t.graph ~src:node ~dst:packet.Packet.src with
    | Some forward ->
      Hashtbl.remove t.pending_acks (Link.id_to_int forward.Link.id, token)
    | None -> ())
  | Packet.Data when Node.equal packet.Packet.dst node ->
    let src = Node.to_int packet.Packet.src
    and dst = Node.to_int packet.Packet.dst in
    let delay_s = Packet.age packet ~now:(Engine.now t.engine) in
    Measure.record_delivery t.measure ~delay_s ~bits:packet.Packet.bits
      ~hops:packet.Packet.hops ~min_hops:t.min_hops.(src).(dst);
    trace t (fun () ->
        Trace.Packet_delivered
          { src = packet.Packet.src;
            dst = packet.Packet.dst;
            delay_s;
            hops = packet.Packet.hops })
  | Packet.Data -> (
    match Routing_table.next_hop t.tables.(Node.to_int node) packet.Packet.dst
    with
    | None ->
      Measure.record_drop t.measure;
      trace t (fun () ->
          Trace.Packet_dropped
            { at = node; src = packet.Packet.src; dst = packet.Packet.dst;
              reason = Trace.No_route })
    | Some link ->
      if packet.Packet.hops >= ttl_hops then begin
        Measure.record_drop t.measure;
        trace t (fun () ->
            Trace.Packet_dropped
              { at = node; src = packet.Packet.src; dst = packet.Packet.dst;
                reason = Trace.Ttl })
      end
      else Link_queue.enqueue t.queues.(Link.id_to_int link.Link.id) packet)

and make_queue t (link : Link.t) =
  let measurement = t.measurements.(Link.id_to_int link.Link.id) in
  Link_queue.create ~buffer_packets:t.config.buffer_packets
    ~error_rate:t.config.line_error_rate ~rng:t.link_rng t.engine link
    ~on_arrival:(fun packet -> handle_arrival t packet link.Link.dst)
    ~on_measured:(fun ~delay_s ->
      Measurement.record_packet measurement ~delay_s)
    ~on_drop:(fun reason (packet : Packet.t) ->
      match packet.Packet.kind with
      | Packet.Data ->
        Measure.record_drop t.measure;
        trace t (fun () ->
            Trace.Packet_dropped
              { at = link.Link.src;
                src = packet.Packet.src;
                dst = packet.Packet.dst;
                reason =
                  (match reason with
                  | Link_queue.Buffer_full -> Trace.Buffer_full
                  | Link_queue.Line_down -> Trace.Line_down
                  | Link_queue.Corrupted -> Trace.Line_error) })
      | Packet.Control _ | Packet.Control_ack _ ->
        (* Lost to a line error or a downed line; the per-line
           retransmission timer recovers Control packets, and a
           retransmitted Control re-triggers the ack. *)
        ())

(* End-of-period processing: read every measurement, run the metric,
   flood significant changes, recompute tables if anything changed. *)
let routing_period t =
  Tracer.span_begin t.tracer t.tr_period;
  let period = Units.routing_period_s in
  let now = Engine.now t.engine in
  (* Garbage-collect long-finished floods: anything older than 100 s has
     either been delivered everywhere or superseded by newer sequence
     numbers (the 50-second reliability refloods guarantee the latter). *)
  vec_clear t.doomed_tokens;
  Hashtbl.iter
    (fun token (_, originated_s) ->
      if now -. originated_s > 100. then vec_push t.doomed_tokens token)
    t.in_flight;
  for k = 0 to t.doomed_tokens.len - 1 do
    Hashtbl.remove t.in_flight t.doomed_tokens.buf.(k)
  done;
  vec_clear t.doomed_acks;
  Hashtbl.iter
    (fun ((_, token) as key) () ->
      if not (Hashtbl.mem t.in_flight token) then vec_push t.doomed_acks key)
    t.pending_acks;
  for k = 0 to t.doomed_acks.len - 1 do
    Hashtbl.remove t.pending_acks t.doomed_acks.buf.(k)
  done;
  (* Every up link's average delay for the period feeds the metric; one
     update floods per PSN that had significant changes. *)
  Array.iteri
    (fun i m ->
      if t.link_up.(i) then t.link_delay.(i) <- Measurement.finish_period m)
    t.measurements;
  let updates =
    Control_plane.period t.plane ~up:t.link_up ~link_delay_s:t.link_delay
  in
  if updates <> [] then
    Log.debug (fun m ->
        m "t=%.0fs: %d PSNs flooding updates" now (List.length updates));
  Tracer.span_begin t.tracer t.tr_flood;
  List.iter
    (fun (u : Update.t) ->
      trace t (fun () ->
          Trace.Update_flooded
            { origin = u.Update.origin; links = List.length u.Update.costs });
      if t.config.instant_flooding then begin
        let outcome = Control_plane.flood t.plane u in
        Measure.record_updates t.measure ~count:1 ~bits:outcome.Broadcast.bits;
        t.tables_dirty <- true
      end
      else begin
        (* Hop-by-hop propagation on the priority lanes. *)
        let token = t.next_update_token in
        t.next_update_token <- token + 1;
        Hashtbl.replace t.in_flight token (u, Engine.now t.engine);
        Measure.record_updates t.measure ~count:1 ~bits:0.;
        apply_costs t (Node.to_int u.Update.origin) u.Update.costs;
        List.iter
          (fun (l : Link.t) ->
            if t.link_up.(Link.id_to_int l.Link.id) then
              send_control t l.Link.id token)
          (Graph.out_links t.graph u.Update.origin)
      end)
    updates;
  Tracer.span_end t.tracer t.tr_flood;
  if t.tables_dirty && t.config.instant_flooding then install_tables t;
  (* Per-period series. *)
  if t.config.record_series then
    Array.iteri
      (fun i q ->
        let bits = Link_queue.transmitted_bits q in
        let cap = Link.capacity_bps (Link_queue.link q) in
        Time_series.record t.util_series.(i) ~time:now
          ((bits -. t.prev_bits.(i)) /. (cap *. period));
        t.prev_bits.(i) <- bits;
        Time_series.record t.cost_series.(i) ~time:now
          (float_of_int (Metric.cost (metric t) (Link.id_of_int i))))
      t.queues;
  (* Telemetry per-period: queue depths, oscillation detection over the
     flooded costs, and the SPF engine counters kept current. *)
  (match t.obs with
  | None -> ()
  | Some o ->
    Array.iteri
      (fun i q ->
        let lid = Link.id_of_int i in
        let cost = Metric.cost (metric t) lid in
        let idle = Metric.idle_cost t.config.metric (Graph.link t.graph lid) in
        Obs_metrics.sample o.queue_depth.(i) ~time:now
          (float_of_int (Link_queue.queue_length q));
        Obs_metrics.sample o.cost_hops.(i) ~time:now
          (float_of_int cost /. float_of_int (max 1 idle));
        Obs_oscillation.observe ~on_flag:o.on_flag o.osc ~link:i ~time:now
          ~cost)
      t.queues;
    Spf_gauges.set o.spf_gauges (Spf_engine.stats t.spf));
  Tracer.span_end t.tracer t.tr_period

let rec schedule_periods t =
  Engine.schedule t.engine ~after:Units.routing_period_s (fun () ->
      routing_period t;
      schedule_periods t)

let create ?config graph tm =
  let config = Option.value config ~default:(default_config Metric.Hn_spf) in
  let n = Graph.node_count graph in
  let nl = Graph.link_count graph in
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let metric = Metric.create config.metric graph in
  let pool =
    if config.domains > 1 then Some (Domain_pool.create config.domains)
    else None
  in
  (* The telemetry bundle's tracer flight-records the SPF engines and
     the pool's worker domains, as in {!Flow_sim}. *)
  let tracer =
    match config.telemetry with
    | Some tele -> Telemetry.tracer tele
    | None -> Tracer.null
  in
  if Tracer.enabled tracer then
    Option.iter
      (fun p -> Domain_pool.set_probe p (Some (Tracer.pool_probe tracer)))
      pool;
  let tables =
    Array.init n (fun i -> Routing_table.create graph ~owner:(Node.of_int i))
  in
  (* Hop-by-hop flooding: every PSN starts from the same believed costs
     with all links up; this is the only full SPF its tree ever sees. *)
  let views =
    if config.instant_flooding then [||]
    else begin
      let w = Dijkstra.compute_weights graph ~cost:(Metric.cost_fn metric) in
      let s = Dijkstra.scratch () in
      Array.mapi
        (fun i table ->
          let weights = Array.copy w in
          let tree = Dijkstra.compute_flat_s s graph ~weights (Node.of_int i) in
          Routing_table.refresh table tree;
          { weights; tree; table })
        tables
    end
  in
  let t =
    { graph;
      config;
      engine;
      plane = Control_plane.create metric;
      queues = [||];
      measurements =
        Array.init nl (fun i ->
            Measurement.create (Graph.link graph (Link.id_of_int i)));
      link_delay = Array.make nl 0.;
      workload = None;
      measure = Measure.create ~nodes:n;
      min_hops = Array.init n (fun _ -> Array.make n max_int);
      link_up = Array.make nl true;
      prev_bits = Array.make nl 0.;
      tables;
      views;
      repair_scratch = Spf_repair.scratch ();
      in_flight = Hashtbl.create 64;
      next_update_token = 0;
      pending_acks = Hashtbl.create 64;
      doomed_tokens = vec_make 0;
      doomed_acks = vec_make (0, 0);
      link_rng = Rng.create (config.seed lxor 0x5F5F5F);
      flood_latency = Welford.create ();
      spf = Spf_engine.create ?pool ~tracer graph;
      min_spf = Spf_engine.create ?pool ~tracer graph;
      obs = Option.map (fun tele -> make_obs_state tele ~links:nl)
          config.telemetry;
      tracer;
      tr_period = Tracer.intern tracer "routing_period";
      tr_refresh = Tracer.intern tracer "spf_refresh";
      tr_flood = Tracer.intern tracer "flood";
      cost_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "cost:l%d" i));
      util_series =
        Array.init nl (fun i -> Time_series.create (Printf.sprintf "util:l%d" i));
      started = false;
      tables_dirty = true }
  in
  t.queues <-
    Array.init nl (fun i -> make_queue t (Graph.link graph (Link.id_of_int i)));
  (* Expose the per-link series the simulator already keeps through the
     registry, so a metrics snapshot carries Figs 5–8's raw series without
     recording anything twice. *)
  (match t.obs with
  | None -> ()
  | Some o ->
    let m = Telemetry.metrics o.tele in
    let link_label i = [ ("link", Printf.sprintf "l%d" i) ] in
    Array.iteri
      (fun i s -> Obs_metrics.adopt_series m ~labels:(link_label i) "link_cost" s)
      t.cost_series;
    Array.iteri
      (fun i s ->
        Obs_metrics.adopt_series m ~labels:(link_label i) "link_utilization" s)
      t.util_series);
  t.workload <-
    Some
      (Workload.create ~size:packet_size rng engine tm
         ~inject:(fun packet -> handle_arrival t packet packet.Packet.src));
  recompute_min_hops t;
  if config.instant_flooding then install_tables t;
  t

let graph t = t.graph

let engine t = t.engine

let run t ~duration_s =
  if not t.started then begin
    t.started <- true;
    Option.iter Workload.start t.workload;
    schedule_periods t
  end;
  Engine.run_until t.engine (Engine.now t.engine +. duration_s)

let indicators t =
  Measure.indicators t.measure ~elapsed_s:(Float.max 1e-9 (Engine.now t.engine))

let reset_measurements t = Measure.reset t.measure

let set_link_up t lid up =
  let i = Link.id_to_int lid in
  if t.link_up.(i) <> up then begin
    t.link_up.(i) <- up;
    trace t (fun () -> Trace.Link_state { link = lid; up });
    Log.info (fun m ->
        m "t=%.0fs: link %a %s" (Engine.now t.engine) Link.pp
          (Graph.link t.graph lid)
          (if up then "up (easing in)" else "down"));
    if not up then begin
      (* Updates pending on a dead line will never be acknowledged. *)
      vec_clear t.doomed_acks;
      Hashtbl.iter
        (fun ((l, _) as key) () -> if l = i then vec_push t.doomed_acks key)
        t.pending_acks;
      for k = 0 to t.doomed_acks.len - 1 do
        Hashtbl.remove t.pending_acks t.doomed_acks.buf.(k)
      done
    end;
    Link_queue.set_up t.queues.(i) up;
    if up then Metric.link_up (metric t) lid;
    recompute_min_hops t;
    if t.config.instant_flooding then install_tables t
    else
      (* Every PSN sees the line state at once: flip the link's sign in
         each weight table and repair each tree. *)
      Array.iter
        (fun v ->
          let old_w = v.weights.(i) in
          v.weights.(i) <- lnot old_w;
          Spf_repair.stage t.repair_scratch lid ~old_w ~new_w:v.weights.(i);
          repair_view t v)
        t.views
  end

let table t node = t.tables.(Node.to_int node)

let believed_cost t node lid =
  if t.config.instant_flooding then Metric.cost (metric t) lid
  else begin
    let w = t.views.(Node.to_int node).weights.(Link.id_to_int lid) in
    Spf_tree.composite_units (if w >= 0 then w else lnot w)
  end

let cost_series t lid = t.cost_series.(Link.id_to_int lid)

let utilization_series t lid = t.util_series.(Link.id_to_int lid)

let median_delay_ms t = Measure.median_delay_ms t.measure

let p95_delay_ms t = Measure.p95_delay_ms t.measure

let delivered_packets t = Measure.delivered_packets t.measure

let dropped_packets t = Measure.dropped_packets t.measure

let flood_latency_stats t = t.flood_latency

let generated_packets t =
  match t.workload with
  | Some w -> Workload.generated_packets w
  | None -> 0

let spf_stats t = Spf_engine.stats t.spf

let telemetry t = t.config.telemetry
