(* The flow-simulator workloads: an end-to-end run timing [Flow_sim.step],
   and a traced run replaying the period layer by layer
   ([Period_replay]). *)

open Common
module Graph = Routing_topology.Graph
module Link = Routing_topology.Link
module Arpanet = Routing_topology.Arpanet
module Generators = Routing_topology.Generators
module Traffic_matrix = Routing_topology.Traffic_matrix
module Rng = Routing_stats.Rng
module Metric = Routing_metric.Metric
module Spf_engine = Routing_spf.Spf_engine
module Flow_sim = Routing_sim.Flow_sim
module Flow_store = Routing_sim.Flow_store
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export

type spec = {
  name : string;
  kind : Metric.kind;
  domains : int;
  setup_reps : int;  (** set-ups timed per run; setup_s is their median *)
  warmup : int;  (** periods run before the allocation count *)
  counted : int;  (** periods the allocation count and digest cover *)
  compared : int;
      (** opening periods a multi-domain simulator must reproduce from the
          1-domain reference *)
  gate : int;  (** lockstep periods of the replay identity gate *)
  block : int;  (** periods per alternating block of the traced run *)
  sample : int;  (** periods per timed sample of the end-to-end run *)
  kernel : kernel;  (** host-speed reference kernel *)
  make : seed:int -> Flow_sim.t;  (** inputs and simulator: what setup_s times *)
}

let arpanet_dspf_flow =
  { name = "arpanet_dspf_flow";
    kind = Metric.D_spf;
    domains = 1;
    setup_reps = 31;
    warmup = 10;
    counted = 300;
    compared = 0;
    gate = 200;
    block = 20;
    (* A period takes ~1.5 ms, and D-SPF's alternation makes single
       periods multi-modal; ten-period samples keep the quantiles
       stable. *)
    sample = 10;
    kernel = Compute;
    make =
      (fun ~seed ->
        let g = Arpanet.topology () in
        let tm = Arpanet.peak_traffic (Rng.create seed) g in
        Flow_sim.create ~domains:1 g Metric.D_spf tm) }

let mesh200_hnspf_megaflow =
  { name = "mesh200_hnspf_megaflow";
    kind = Metric.Hn_spf;
    domains = 2;
    setup_reps = 3;
    warmup = 8;
    counted = 20;
    compared = 8;
    gate = 4;
    block = 1;
    sample = 1;
    kernel = Memory;
    make =
      (fun ~seed ->
        let g = Generators.ring_chord (Rng.create 99) ~nodes:200 ~chords:120 in
        let flows =
          Flow_store.heavy_tailed (Rng.create seed) ~nodes:200 ~flows:1_000_000
            ~total_bps:2e6 ~size:(Flow_store.Pareto { alpha = 1.2 })
        in
        let sim =
          Flow_sim.create ~domains:2 g Metric.Hn_spf
            (Traffic_matrix.create ~nodes:200)
        in
        Flow_sim.set_flows sim flows;
        sim) }

(* A traced replay's mean period may exceed the untraced [Flow_sim] mean
   by the recorder's own cost and differ by run-to-run noise; beyond this
   share the replay no longer stands for the simulator and the run fails.
   Measured on a 2-core host: the replay read within ±6 % on both
   workloads (README.md, "Reconciliation"). *)
let reconcile_tolerance = 0.15

let stats_equal (a : Flow_sim.period_stats) (b : Flow_sim.period_stats) =
  same_bits a.time_s b.time_s
  && same_bits a.offered_bps b.offered_bps
  && same_bits a.delivered_bps b.delivered_bps
  && same_bits a.dropped_bps b.dropped_bps
  && same_bits a.mean_delay_s b.mean_delay_s
  && same_bits a.mean_hops b.mean_hops
  && same_bits a.mean_min_hops b.mean_min_hops
  && a.updates = b.updates
  && same_bits a.update_bits b.update_bits
  && same_bits a.max_utilization b.max_utilization
  && a.congested_links = b.congested_links
  && a.routes_changed = b.routes_changed
  && a.next_hop_flips = b.next_hop_flips
  && a.link_flips = b.link_flips

(* MD5 over every simulated per-period indicator, floats in hex so the
   digest sees every bit. *)
let digest_history history =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Flow_sim.period_stats) ->
      Printf.bprintf b "%h %h %h %h %h %h %h %d %h %h %d %d %d %d\n" s.time_s
        s.offered_bps s.delivered_bps s.dropped_bps s.mean_delay_s s.mean_hops
        s.mean_min_hops s.updates s.update_bits s.max_utilization
        s.congested_links s.routes_changed s.next_hop_flips s.link_flips)
    history;
  Digest.to_hex (Digest.string (Buffer.contents b))

let stats_conserved (s : Flow_sim.period_stats) =
  conserved ~offered:s.offered_bps ~delivered:s.delivered_bps
    ~dropped:s.dropped_bps

(* A 1-domain simulator over the same graph and flow store: allocation
   counters in OCaml 5 are per domain, so words are counted where one
   domain does all the work.  Results do not depend on the domain count. *)
let one_domain_copy spec sim =
  let g = Flow_sim.graph sim in
  let copy =
    Flow_sim.create ~domains:1 g spec.kind
      (Traffic_matrix.create ~nodes:(Graph.node_count g))
  in
  Flow_sim.set_flows copy (Flow_sim.flows sim);
  copy

let run spec ~seed ~seconds =
  let setup_s, sim = time_reps ~reps:spec.setup_reps (fun () -> spec.make ~seed) in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  (* Allocation count and digest over a fixed opening run of a fresh
     1-domain simulator, so both repeat exactly for a seed. *)
  let notes = ref [] in
  let words, digest =
    let reference = if spec.domains = 1 then sim else one_domain_copy spec sim in
    (* The compared periods fall inside the warm-up, so their timing
       stays out of the allocation count. *)
    assert (spec.compared <= spec.warmup);
    let opening = Array.make spec.compared 0. in
    settle_gc ();
    for i = 0 to spec.warmup - 1 do
      let t0 = now () in
      Flow_sim.tick reference;
      if i < spec.compared then opening.(i) <- now () -. t0
    done;
    let g0 = gc_mark () in
    for _ = 1 to spec.counted do
      Flow_sim.tick reference
    done;
    let g1 = gc_mark () in
    let history = Flow_sim.history reference in
    List.iter (fun s -> check (stats_conserved s)) history;
    (* A multi-domain simulator must reproduce the reference bit for bit;
       the same opening periods time both domain counts. *)
    if reference != sim then begin
      let t0 = now () in
      List.iteri
        (fun i r ->
          if i < spec.compared then check (stats_equal r (Flow_sim.step sim)))
        history;
      let multi = now () -. t0 in
      let ms x = 1000. *. x /. float_of_int spec.compared in
      notes :=
        [ ( Printf.sprintf "periods 1..%d, mean" spec.compared,
            Printf.sprintf "1 domain %.2f ms, %d domains %.2f ms"
              (ms (sum opening)) spec.domains (ms multi) ) ]
    end;
    let per x = x /. float_of_int spec.counted in
    ((per (g1.minor -. g0.minor), per (g1.major -. g0.major)), digest_history history)
  in
  let rss_mb = peak_rss_mb () in
  settle_gc ();
  let timing =
    timed_loop ~domains:spec.domains ~seconds ~kernel:spec.kernel
      ~periods:spec.sample (fun () ->
        for _ = 1 to spec.sample do
          check (stats_conserved (Flow_sim.step sim))
        done)
  in
  let minor, major = words in
  { metrics = end_to_end ~setup_s ~timing ~minor ~major ~rss_mb ();
    attempted = !attempted;
    failed = !failed;
    digest;
    notes =
      timing_notes ~kernel:spec.kernel ~setup_s timing
      @ [ ( "words counted over periods",
            Printf.sprintf "%d..%d of a 1-domain run" (spec.warmup + 1)
              (spec.warmup + spec.counted) ) ]
      @ !notes }

(* {1 Traced replay} *)

exception Gate_failed of string

let replay_matches sim (s : Flow_sim.period_stats) replay ~period =
  let g = Flow_sim.graph sim in
  let fail what = raise (Gate_failed (Printf.sprintf "period %d: %s" period what)) in
  for i = 0 to Graph.link_count g - 1 do
    let lid = Link.id_of_int i in
    let a = Flow_sim.link_cost sim lid in
    let b = Metric.cost (Period_replay.routing_metric replay) lid in
    if a <> b then fail (Printf.sprintf "link %d cost %d, replay %d" i a b)
  done;
  if not (same_bits s.offered_bps (Period_replay.offered_bps replay)) then
    fail "offered bps differ";
  if not (same_bits s.delivered_bps (Period_replay.delivered_bps replay)) then
    fail "delivered bps differ";
  if not (same_bits s.dropped_bps (Period_replay.dropped_bps replay)) then
    fail "dropped bps differ"

(* Self time per span name over the periods after the first [skip]
   top-level periods, from the main domain's track: a span's duration
   minus the part its children cover.  Returns the per-name self-time
   sums (seconds) and the top-level period durations. *)
let self_times tracer ~skip =
  let self = Hashtbl.create 16 in
  let periods = Samples.create () in
  let period_id = Tracer.intern tracer Period_replay.period_span in
  let stack = ref [] (* (name, begin ts, child time) *) in
  let seen = ref 0 in
  Tracer.iter_slot tracer 0 (fun ~ts ~kind ~name ~a:_ ~b:_ ->
      match kind with
      | Tracer.Begin ->
        if name = period_id then incr seen;
        stack := (name, ts, ref 0.) :: !stack
      | Tracer.End -> (
        match !stack with
        | (n, t0, children) :: rest when n = name ->
          stack := rest;
          let dur = ts -. t0 in
          (match rest with (_, _, up) :: _ -> up := !up +. dur | [] -> ());
          if !seen > skip then begin
            if name = period_id then Samples.push periods dur;
            let prev = Option.value ~default:0. (Hashtbl.find_opt self name) in
            Hashtbl.replace self name (prev +. (dur -. !children))
          end
        | _ -> failwith "trace: unbalanced span")
      | Tracer.Instant | Tracer.Counter -> ());
  (self, Samples.to_array periods)

let spf_counts engines =
  List.fold_left
    (fun (rc, rp, ru, rs) e ->
      let s = Spf_engine.stats e in
      ( rc + s.Spf_engine.sources_recomputed,
        rp + s.Spf_engine.sources_repaired,
        ru + s.Spf_engine.sources_reused,
        rs + s.Spf_engine.nodes_resettled ))
    (0, 0, 0, 0) engines

let run_traced spec ~seed ~seconds ~trace_file =
  let sim = spec.make ~seed in
  (* Room for every event of the run: the recorder must drop none. *)
  let capacity = 1 lsl 18 in
  let tracer = Tracer.create ~capacity ~clock:Tracer.Wall () in
  let replay =
    Period_replay.create ~domains:spec.domains ~tracer (Flow_sim.graph sim)
      spec.kind (Flow_sim.flows sim)
  in
  Fun.protect ~finally:(fun () -> Period_replay.shutdown replay) @@ fun () ->
  (* Identity gate: the replay must reproduce the simulator bit for bit
     before any per-layer number is taken. *)
  for p = 1 to spec.gate do
    let s = Flow_sim.step sim in
    Period_replay.period replay;
    replay_matches sim s replay ~period:p
  done;
  let attempted = ref spec.gate and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  (* Timed phase: blocks of untraced simulator periods alternate with
     blocks of traced replay periods, so both see the same host
     conditions.  GC collections are counted over the untraced blocks. *)
  let engines = [ Period_replay.engine replay; Period_replay.min_engine replay ] in
  let rc0, rp0, ru0, rs0 = spf_counts engines in
  let words0 = List.map (Period_replay.layer_words replay) Period_replay.layers in
  let upd0 = Period_replay.updates replay
  and tx0 = Period_replay.transmissions replay
  and ch0 = Period_replay.changed_links replay in
  let max_periods = (capacity / 40) - spec.gate in
  let untraced = Samples.create () in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let n = ref 0 in
  settle_gc ();
  let t_end = now () +. seconds in
  while now () < t_end && !n + spec.block <= max_periods do
    let g0 = gc_mark () in
    for _ = 1 to spec.block do
      let t0 = now () in
      let s = Flow_sim.step sim in
      Samples.push untraced (now () -. t0);
      check (stats_conserved s)
    done;
    let g1 = gc_mark () in
    minor_gcs := !minor_gcs + g1.minor_gcs - g0.minor_gcs;
    major_gcs := !major_gcs + g1.major_gcs - g0.major_gcs;
    for _ = 1 to spec.block do
      Period_replay.period replay;
      incr n;
      check
        (conserved ~offered:(Period_replay.offered_bps replay)
           ~delivered:(Period_replay.delivered_bps replay)
           ~dropped:(Period_replay.dropped_bps replay))
    done
  done;
  let untraced = Samples.to_array untraced in
  if Tracer.dropped tracer > 0 then failwith "trace: recorder dropped events";
  let self, traced = self_times tracer ~skip:spec.gate in
  let n = float_of_int !n in
  let per x = x /. n in
  let layer_ms layer =
    let id = Tracer.intern tracer (Period_replay.span_name layer) in
    1000. *. per (Option.value ~default:0. (Hashtbl.find_opt self id))
  in
  let words layer =
    let i = Period_replay.layer_index layer in
    per (Period_replay.layer_words replay layer -. List.nth words0 i)
  in
  let untraced_ms = 1000. *. mean untraced in
  let traced_ms = 1000. *. mean traced in
  let layers_ms =
    List.fold_left (fun s l -> s +. layer_ms l) 0. Period_replay.layers
  in
  let unaccounted_ms = untraced_ms -. layers_ms in
  let drift = (traced_ms -. untraced_ms) /. untraced_ms in
  check (Float.abs drift <= reconcile_tolerance);
  let rc1, rp1, ru1, rs1 = spf_counts engines in
  let recomputed = rc1 - rc0 and repaired = rp1 - rp0 and reused = ru1 - ru0 in
  let count x = per (float_of_int x) in
  let assign_ms = layer_ms Period_replay.Assign in
  let nf = float_of_int (Flow_store.length (Flow_sim.flows sim)) in
  let gcs x = float_of_int x /. float_of_int (Array.length untraced) in
  Trace_export.write_chrome tracer trace_file;
  let open Period_replay in
  { metrics =
      [ metric "spf_engine.refresh_ms" (layer_ms Spf) "ms";
        metric "spf_engine.minhop_refresh_ms" (layer_ms Minhop) "ms";
        metric "spf_engine.sources_recomputed" (count recomputed) "count";
        metric "spf_engine.sources_repaired" (count repaired) "count";
        metric "spf_engine.sources_reused" (count reused) "count";
        metric "spf_engine.nodes_resettled" (count (rs1 - rs0)) "count";
        metric "spf_engine.reuse_ratio"
          (float_of_int reused
          /. float_of_int (max 1 (recomputed + repaired + reused)))
          "ratio";
        metric "spf_engine.minor_words" (words Spf +. words Minhop) "words";
        metric "flooding.flood_ms" (layer_ms Flood) "ms";
        metric "flooding.floods" (count (updates replay - upd0)) "count";
        metric "flooding.transmissions" (count (transmissions replay - tx0)) "count";
        metric "flooding.minor_words" (words Flood) "words";
        metric "load_assign.assign_ms" assign_ms "ms";
        metric "load_assign.metrics_ms" (layer_ms Metrics) "ms";
        metric "load_assign.flows_per_s" (nf /. (assign_ms /. 1000.)) "1/s";
        metric "load_assign.minor_words" (words Assign +. words Metrics) "words";
        metric "queueing.mm1k_ms" (layer_ms Mm1k) "ms";
        metric "metric.update_ms" (layer_ms Update) "ms";
        metric "metric.updates" (count (changed_links replay - ch0)) "count";
        metric "metric.minor_words" (words Update) "words";
        metric "flow_sim.accounting_ms" (layer_ms Accounting) "ms";
        metric "flow_sim.unaccounted_ms" unaccounted_ms "ms";
        metric "trace.overhead_ms" (traced_ms -. untraced_ms) "ms";
        metric "gc.minor_collections" (gcs !minor_gcs) "count";
        metric "gc.major_collections" (gcs !major_gcs) "count" ];
    attempted = !attempted;
    failed = !failed;
    digest = "";
    notes =
      [ ("replay identity gate", Printf.sprintf "passed over %d periods" spec.gate);
        ("untraced mean period",
          Printf.sprintf "%.4f ms over %d Flow_sim periods" untraced_ms
            (Array.length untraced));
        ("traced replay mean period",
          Printf.sprintf "%.4f ms over %.0f periods" traced_ms n);
        ("reconciliation",
          Printf.sprintf
            "layers %.4f ms + unaccounted %.4f ms (%.1f%%) = untraced %.4f ms"
            layers_ms unaccounted_ms
            (100. *. unaccounted_ms /. untraced_ms)
            untraced_ms);
        ("tracing overhead",
          Printf.sprintf "%+.4f ms (%+.1f%%, tolerance ±%.0f%%)"
            (traced_ms -. untraced_ms) (100. *. drift)
            (100. *. reconcile_tolerance)) ] }
