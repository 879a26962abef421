(* A replay of one flow-simulator routing period through the same public
   calls [Flow_sim.tick] makes, with every call wrapped in a span of the
   flight recorder.  The replay covers the configuration the benchmark
   runs — no stagger, no adaptive sources, no telemetry bundle, all links
   up — and must reproduce [Flow_sim.step] bit for bit (the identity gate
   in [Flow_bench] checks it before any per-layer number is printed).

   Layers, in the order a period calls them:
   - spf_engine: [Spf_engine.refresh] of the min-hop engine, then of the
     metric engine;
   - load_assign: [Load_assign.assign] and [Load_assign.metrics_into];
   - queueing: [Queueing.mm1k_into];
   - metric: [Metric.period_update_all];
   - flooding: [Flooder.originate] + [Broadcast.flood] per update;
   - flow_sim.accounting: the per-flow and per-link passes [tick] runs
     inline (sending rates, route-change and flip accounting, per-flow
     totals, change grouping).
   Everything between those spans inside the period span is the
   recorder's own glue. *)

module Graph = Routing_topology.Graph
module Link = Routing_topology.Link
module Node = Routing_topology.Node
module Spf_engine = Routing_spf.Spf_engine
module Spf_tree = Routing_spf.Spf_tree
module Metric = Routing_metric.Metric
module Queueing = Routing_metric.Queueing
module Domain_pool = Routing_metric.Domain_pool
module Flooder = Routing_flooding.Flooder
module Broadcast = Routing_flooding.Broadcast
module Flow_store = Routing_sim.Flow_store
module Load_assign = Routing_sim.Load_assign
module Tracer = Routing_obs.Tracer

(* [Flow_sim]'s parallel-assignment threshold: below this many flows the
   assignment stays sequential.  Results are identical either way. *)
let parallel_flow_threshold = 4096

type layer =
  | Spf
  | Minhop
  | Assign
  | Metrics
  | Mm1k
  | Update
  | Flood
  | Accounting

let layers = [ Spf; Minhop; Assign; Metrics; Mm1k; Update; Flood; Accounting ]

let layer_index = function
  | Spf -> 0
  | Minhop -> 1
  | Assign -> 2
  | Metrics -> 3
  | Mm1k -> 4
  | Update -> 5
  | Flood -> 6
  | Accounting -> 7

let span_name = function
  | Spf -> "spf_engine.refresh"
  | Minhop -> "spf_engine.minhop_refresh"
  | Assign -> "load_assign.assign"
  | Metrics -> "load_assign.metrics"
  | Mm1k -> "queueing.mm1k"
  | Update -> "metric.update"
  | Flood -> "flooding.flood"
  | Accounting -> "flow_sim.accounting"

let period_span = "routing_period"

(* Per-period totals, flat floats so updates do not box. *)
type acc = {
  mutable offered : float;
  mutable delivered : float;
  mutable dropped : float;
  mutable delay_w : float;
  mutable hops_w : float;
  mutable min_hops_w : float;
  mutable bits : float;
  mutable max_util : float;
  mutable w0 : float; (* minor-words reading at the open span *)
}

type t = {
  graph : Graph.t;
  metric : Metric.t;
  flows : Flow_store.t;
  flooders : Flooder.t array;
  link_up : bool array;
  pool : Domain_pool.t option;
  engine : Spf_engine.t;
  min_engine : Spf_engine.t;
  assign : Load_assign.t;
  tree_for : Node.t -> Spf_tree.t;
  enabled : (Link.id -> bool) option;
  cost : Link.id -> int;
  utilization : float array;
  offered : float array;
  link_delay : float array;
  link_pass : float array;
  link_src : int array;
  prev_costs : int array;
  sending : float array;
  first_hop : int array;
  prev_first_hop : int array;
  prev2_first_hop : int array;
  flow_delay : float array;
  flow_share : float array;
  flow_hops : int array;
  chg_ids : int array;
  chg_costs : int array;
  changed_costs : (Link.id * int) list array;
  changed_origins : int array;
  mutable changed_count : int;
  osc_seen : bool array;
  osc_last : int array;
  osc_dir : int array;
  mutable link_flips : int;
  mutable routes_changed : int;
  mutable nh_flips : int;
  mutable congested : int;
  mutable updates : int;
  mutable transmissions : int;
  mutable changed_links : int;
  mutable periods : int;
  acc : acc;
  words : float array; (* minor words per layer, summed over periods *)
  tracer : Tracer.t;
  ids : int array; (* interned span names, by layer index *)
  period_id : int;
}

let min_hop_cost _ = 1

(* [domains] sizes a private pool exactly as [Flow_sim.create] does. *)
let create ~domains ~tracer graph kind flows =
  let nl = Graph.link_count graph in
  let nn = Graph.node_count graph in
  let nf = Flow_store.length flows in
  let pool = if domains > 1 then Some (Domain_pool.create domains) else None in
  let metric = Metric.create kind graph in
  let link_up = Array.make nl true in
  let engine = Spf_engine.create ?pool graph in
  { graph;
    metric;
    flows;
    flooders = Array.init nn (fun i -> Flooder.create graph ~owner:(Node.of_int i));
    link_up;
    pool;
    engine;
    min_engine = Spf_engine.create ?pool graph;
    assign = Load_assign.create graph;
    tree_for = Spf_engine.tree engine;
    enabled = Some (fun lid -> link_up.(Link.id_to_int lid));
    cost = Metric.cost_fn metric;
    utilization = Array.make nl 0.;
    offered = Array.make nl 0.;
    link_delay = Array.make nl 0.;
    link_pass = Array.make nl 0.;
    link_src =
      Array.init nl (fun i ->
          Node.to_int (Graph.link graph (Link.id_of_int i)).Link.src);
    prev_costs = Array.init nl (fun i -> Metric.cost metric (Link.id_of_int i));
    sending = Array.make nf 0.;
    first_hop = Array.make nf (-2);
    prev_first_hop = Array.make nf (-1);
    prev2_first_hop = Array.make nf (-1);
    flow_delay = Array.make nf 0.;
    flow_share = Array.make nf 0.;
    flow_hops = Array.make nf (-1);
    chg_ids = Array.make nl 0;
    chg_costs = Array.make nl 0;
    changed_costs = Array.make nn [];
    changed_origins = Array.make nn 0;
    changed_count = 0;
    osc_seen = Array.make nl false;
    osc_last = Array.make nl 0;
    osc_dir = Array.make nl 0;
    link_flips = 0;
    routes_changed = 0;
    nh_flips = 0;
    congested = 0;
    updates = 0;
    transmissions = 0;
    changed_links = 0;
    periods = 0;
    acc =
      { offered = 0.;
        delivered = 0.;
        dropped = 0.;
        delay_w = 0.;
        hops_w = 0.;
        min_hops_w = 0.;
        bits = 0.;
        max_util = 0.;
        w0 = 0. };
    words = Array.make (List.length layers) 0.;
    tracer;
    ids = Array.of_list (List.map (fun l -> Tracer.intern tracer (span_name l)) layers);
    period_id = Tracer.intern tracer period_span }

let shutdown r = Option.iter Domain_pool.shutdown r.pool

let routing_metric r = r.metric

let engine r = r.engine

let min_engine r = r.min_engine

let offered_bps r = r.acc.offered

let delivered_bps r = r.acc.delivered

let dropped_bps r = r.acc.dropped

let updates r = r.updates

let transmissions r = r.transmissions

let changed_links r = r.changed_links

let layer_words r layer = r.words.(layer_index layer)

(* Open and close a layer span; the minor-words reading sits inside the
   span, so the recorder's own allocation is not charged to the layer. *)
let[@inline] enter r layer =
  Tracer.span_begin r.tracer r.ids.(layer_index layer);
  r.acc.w0 <- Gc.minor_words ()

let[@inline] leave r layer =
  let i = layer_index layer in
  r.words.(i) <- r.words.(i) +. (Gc.minor_words () -. r.acc.w0);
  Tracer.span_end r.tracer r.ids.(i)

let period r =
  let nl = Graph.link_count r.graph in
  let nf = Flow_store.length r.flows in
  let acc = r.acc in
  Tracer.span_begin r.tracer r.period_id;
  enter r Minhop;
  Spf_engine.refresh ?enabled:r.enabled r.min_engine ~cost:min_hop_cost;
  leave r Minhop;
  enter r Spf;
  Spf_engine.refresh ?enabled:r.enabled r.engine ~cost:r.cost;
  leave r Spf;
  enter r Accounting;
  for i = 0 to nl - 1 do
    r.prev_costs.(i) <- Metric.cost r.metric (Link.id_of_int i)
  done;
  let demand = Flow_store.demand_col r.flows in
  let throttle = Flow_store.throttle_col r.flows in
  for fi = 0 to nf - 1 do
    r.sending.(fi) <- demand.(fi) *. throttle.(fi)
  done;
  Array.fill r.offered 0 nl 0.;
  leave r Accounting;
  enter r Assign;
  let pool = if nf >= parallel_flow_threshold then r.pool else None in
  Load_assign.assign ?pool r.assign ~flows:r.flows ~tree_for:r.tree_for
    ~sending:r.sending ~offered:r.offered ~first_hop:r.first_hop;
  leave r Assign;
  enter r Accounting;
  let routes_changed = ref 0 in
  for fi = 0 to nf - 1 do
    let fh = r.first_hop.(fi) in
    if fh <> -2 then begin
      let prev = r.prev_first_hop.(fi) in
      if prev >= 0 && prev <> fh then begin
        incr routes_changed;
        if r.prev2_first_hop.(fi) = fh then r.nh_flips <- r.nh_flips + 1
      end;
      r.prev2_first_hop.(fi) <- prev;
      r.prev_first_hop.(fi) <- fh
    end
  done;
  r.routes_changed <- r.routes_changed + !routes_changed;
  acc.offered <- 0.;
  acc.delivered <- 0.;
  acc.dropped <- 0.;
  acc.delay_w <- 0.;
  acc.hops_w <- 0.;
  acc.min_hops_w <- 0.;
  acc.bits <- 0.;
  acc.max_util <- 0.;
  leave r Accounting;
  enter r Mm1k;
  Queueing.mm1k_into r.graph ~up:r.link_up ~offered_bps:r.offered
    ~utilization:r.utilization ~delay_s:r.link_delay ~pass:r.link_pass;
  leave r Mm1k;
  enter r Accounting;
  for i = 0 to nl - 1 do
    let u = r.utilization.(i) in
    if u > acc.max_util then acc.max_util <- u;
    if u > 0.9 then r.congested <- r.congested + 1
  done;
  leave r Accounting;
  enter r Metrics;
  Load_assign.metrics_into r.assign ~flows:r.flows ~tree_for:r.tree_for
    ~link_delay:r.link_delay ~link_pass:r.link_pass ~delay_s:r.flow_delay
    ~share:r.flow_share ~hops:r.flow_hops;
  leave r Metrics;
  enter r Accounting;
  let fsrc = Flow_store.src_col r.flows in
  let fdst = Flow_store.dst_col r.flows in
  for fi = 0 to nf - 1 do
    let sending = r.sending.(fi) in
    acc.offered <- acc.offered +. sending;
    let hops = r.flow_hops.(fi) in
    if hops < 0 then acc.dropped <- acc.dropped +. sending
    else begin
      let carried = sending *. r.flow_share.(fi) in
      acc.delivered <- acc.delivered +. carried;
      acc.dropped <- acc.dropped +. (sending -. carried);
      acc.delay_w <- acc.delay_w +. (r.flow_delay.(fi) *. carried);
      acc.hops_w <- acc.hops_w +. (float_of_int hops *. carried);
      let min_tree = Spf_engine.tree r.min_engine (Node.of_int fsrc.(fi)) in
      let d = fdst.(fi) in
      let mh =
        if Spf_tree.reached_i min_tree d then Spf_tree.hops_i min_tree d
        else hops
      in
      acc.min_hops_w <- acc.min_hops_w +. (float_of_int mh *. carried)
    end
  done;
  leave r Accounting;
  enter r Update;
  let nch =
    Metric.period_update_all r.metric ~up:r.link_up ~link_delay_s:r.link_delay
      ~changed_ids:r.chg_ids ~changed_costs:r.chg_costs
  in
  leave r Update;
  r.changed_links <- r.changed_links + nch;
  enter r Accounting;
  for k = 0 to nch - 1 do
    let li = r.chg_ids.(k) in
    let origin = r.link_src.(li) in
    if r.changed_costs.(origin) = [] then begin
      r.changed_origins.(r.changed_count) <- origin;
      r.changed_count <- r.changed_count + 1
    end;
    r.changed_costs.(origin) <-
      (Link.id_of_int li, r.chg_costs.(k)) :: r.changed_costs.(origin)
  done;
  leave r Accounting;
  enter r Flood;
  for k = 0 to r.changed_count - 1 do
    let origin = r.changed_origins.(k) in
    let costs = r.changed_costs.(origin) in
    r.changed_costs.(origin) <- [];
    let update = Flooder.originate r.flooders.(origin) ~costs in
    let outcome = Broadcast.flood r.graph r.flooders update in
    r.updates <- r.updates + 1;
    r.transmissions <- r.transmissions + outcome.Broadcast.transmissions;
    acc.bits <- acc.bits +. outcome.Broadcast.bits
  done;
  leave r Flood;
  enter r Accounting;
  r.changed_count <- 0;
  for i = 0 to nl - 1 do
    let cost = Metric.cost r.metric (Link.id_of_int i) in
    if not r.osc_seen.(i) then begin
      r.osc_seen.(i) <- true;
      r.osc_last.(i) <- cost
    end
    else if cost <> r.osc_last.(i) then begin
      let dir = if cost > r.osc_last.(i) then 1 else -1 in
      if r.osc_dir.(i) <> 0 && dir <> r.osc_dir.(i) then
        r.link_flips <- r.link_flips + 1;
      r.osc_dir.(i) <- dir;
      r.osc_last.(i) <- cost
    end
  done;
  r.periods <- r.periods + 1;
  leave r Accounting;
  Tracer.span_end r.tracer r.period_id
