(* The packet-level workload: [Network] on the ARPANET builtin with
   hop-by-hop update flooding, advanced one 10-second routing period per
   [Network.run] call. *)

open Common
module Arpanet = Routing_topology.Arpanet
module Rng = Routing_stats.Rng
module Metric = Routing_metric.Metric
module Network = Routing_sim.Network
module Engine = Routing_sim.Engine
module Measure = Routing_sim.Measure
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export

let name = "arpanet_hnspf_packet_hbh"

let period_s = 10.

let setup_reps = 5

let kernel = Compute

(* Slices the allocation count and digest cover, from a fresh network. *)
let counted = 20

(* The seed drives both the traffic matrix and the packet workload. *)
let make ~seed =
  let g = Arpanet.topology () in
  let tm = Arpanet.peak_traffic (Rng.create seed) g in
  let config =
    { (Network.default_config Metric.Hn_spf) with
      buffer_packets = 40;
      instant_flooding = false;
      seed;
      domains = 1 }
  in
  Network.create ~config g tm

(* Every packet generated so far is delivered, dropped or still in
   flight. *)
let counters_consistent net =
  Network.generated_packets net
  >= Network.delivered_packets net + Network.dropped_packets net

let digest_indicators (i : Measure.indicators) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%h %h %h %h %h %h %h %h %h %h %h %h %h %h %h %h"
          i.elapsed_s i.internode_traffic_bps i.round_trip_delay_ms
          i.updates_per_s i.update_period_per_node_s i.actual_path_hops
          i.minimum_path_hops i.path_ratio i.dropped_per_s i.overhead_bps
          i.delay_p50_ms i.delay_p95_ms i.delay_p99_ms
          i.route_changes_per_period i.next_hop_flips_per_period
          i.link_flips_per_period))

let run ~seed ~seconds =
  let setup_s, net = time_reps ~reps:setup_reps (fun () -> make ~seed) in
  let attempted = ref 0 and failed = ref 0 in
  let slice () =
    Network.run net ~duration_s:period_s;
    incr attempted;
    if not (counters_consistent net) then incr failed
  in
  settle_gc ();
  let g0 = gc_mark () in
  for _ = 1 to counted do
    slice ()
  done;
  let g1 = gc_mark () in
  let digest = digest_indicators (Network.indicators net) in
  let rss_mb = peak_rss_mb () in
  let timing = timed_loop ~seconds ~kernel ~periods:1 slice in
  let per x = x /. float_of_int counted in
  { metrics =
      end_to_end ~setup_s ~timing ~minor:(per (g1.minor -. g0.minor))
        ~major:(per (g1.major -. g0.major)) ~rss_mb ();
    attempted = !attempted;
    failed = !failed;
    digest;
    notes =
      timing_notes ~kernel ~setup_s timing
      @ [ ("words counted over periods", Printf.sprintf "1..%d" counted) ] }

(* Per-slice counters read through [Network.engine] and the packet
   counters; each slice is one span on the recorder.  Where time goes
   inside [Network.run] needs spans in the simulator itself. *)
let run_traced ~seed ~seconds ~trace_file =
  let net = make ~seed in
  let tracer = Tracer.create ~clock:Tracer.Wall () in
  let span = Tracer.intern tracer "network.run" in
  let engine = Network.engine net in
  let times = Samples.create () in
  let pending = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let ev0 = Engine.events_processed engine in
  let gen0 = Network.generated_packets net
  and del0 = Network.delivered_packets net
  and drop0 = Network.dropped_packets net in
  settle_gc ();
  let g0 = gc_mark () in
  let t_end = now () +. seconds in
  while now () < t_end do
    let t0 = now () in
    Tracer.span_begin tracer span;
    Network.run net ~duration_s:period_s;
    Tracer.span_end tracer span;
    Samples.push times (now () -. t0);
    Samples.push pending (float_of_int (Engine.pending engine));
    incr attempted;
    if not (counters_consistent net) then incr failed
  done;
  let g1 = gc_mark () in
  Trace_export.write_chrome tracer trace_file;
  let n = float_of_int (Samples.length times) in
  let per x = float_of_int x /. n in
  let events = Engine.events_processed engine - ev0 in
  let generated = Network.generated_packets net - gen0
  and delivered = Network.delivered_packets net - del0
  and dropped = Network.dropped_packets net - drop0 in
  { metrics =
      [ metric "engine.events" (per events) "count";
        metric "engine.events_per_s"
          (float_of_int events /. sum (Samples.to_array times))
          "1/s";
        metric "engine.pending" (median (Samples.to_array pending)) "count";
        metric "engine.minor_words_per_event"
          ((g1.minor -. g0.minor) /. float_of_int events)
          "words";
        metric "network.generated" (per generated) "count";
        metric "network.delivered" (per delivered) "count";
        metric "network.dropped" (per dropped) "count";
        metric "network.delivered_ratio"
          (float_of_int delivered /. float_of_int (max 1 generated))
          "ratio";
        metric "gc.minor_collections" (per (g1.minor_gcs - g0.minor_gcs)) "count";
        metric "gc.major_collections" (per (g1.major_gcs - g0.major_gcs)) "count" ];
    attempted = !attempted;
    failed = !failed;
    digest = "";
    notes = [ ("periods traced", string_of_int (Samples.length times)) ] }
