(* The sweep workload: the shipped paper grid, prepared once and run
   through [Sweep_engine.run_prepared].  The end-to-end run times 1-domain
   grids and checks a 2-domain grid; the traced run times the 2-domain
   work-stealing pool.  On the measuring host 2-domain grid times followed
   the hypervisor's steal time (1.1 to 4.0 s per grid, a quartile spread
   of 0.6 of the median over ten runs), too unsteady to score. *)

open Common
module Sweep_spec = Routing_sweep.Sweep_spec
module Sweep_engine = Routing_sweep.Sweep_engine
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export

let name = "paper_sweep"

let spec_file = "scenarios/paper_sweep.json"

let domains = 2

let setup_reps = 9

let kernel = Compute

(* The spec with its seed axis moved by the benchmark seed. *)
let load ~seed =
  match Sweep_spec.load spec_file with
  | Error msg -> failwith (spec_file ^ ": " ^ msg)
  | Ok spec -> { spec with seeds = List.map (fun s -> s + seed) spec.seeds }

let make ~seed = Sweep_engine.prepare (load ~seed)

(* Everything a user of the report reads: the JSON, the per-point CSV
   and the summary CSV. *)
let report_bytes (r : Sweep_engine.report) =
  String.concat "\n"
    [ Json.to_string r.json; Sweep_engine.csv r; Sweep_engine.summary_csv r ]

(* Points of [r] whose outcome differs from the reference run's; when the
   report bytes differ but no point does, the whole grid counts. *)
let failed_points ~(reference : Sweep_engine.report) ~reference_bytes
    (r : Sweep_engine.report) =
  let points = Array.length reference.outcomes in
  if Array.length r.outcomes <> points then points
  else begin
    let differ = ref 0 in
    Array.iteri
      (fun i (o : Sweep_engine.outcome) ->
        let ref_o = reference.outcomes.(i) in
        if o.hash <> ref_o.hash || compare o.indicators ref_o.indicators <> 0 then
          incr differ)
      r.outcomes;
    if !differ = 0 && report_bytes r <> reference_bytes then points else !differ
  end

let run ~seed ~seconds =
  let setup_s, prep = time_reps ~reps:setup_reps (fun () -> make ~seed) in
  let points = Array.length (Sweep_engine.prepared_points prep) in
  let periods = points * (load ~seed).periods in
  (* Untimed check pass on 1 domain: the reference report, and the
     allocation count (a 1-domain run is the one the counter sees
     whole). *)
  settle_gc ();
  let g0 = gc_mark () in
  let t0 = now () in
  let reference = Sweep_engine.run_prepared ~domains:1 prep in
  let one_domain_s = now () -. t0 in
  let g1 = gc_mark () in
  let reference_bytes = report_bytes reference in
  let attempted = ref 0 and failed = ref 0 in
  let rss_mb = peak_rss_mb () in
  let grid domains () =
    let r = Sweep_engine.run_prepared ~domains prep in
    attempted := !attempted + points;
    failed := !failed + failed_points ~reference ~reference_bytes r
  in
  (* The 2-domain pool must give the same report; untimed. *)
  grid domains ();
  settle_gc ();
  let timing = timed_loop ~seconds:(0.6 *. seconds) ~kernel ~periods (grid 1) in
  (* About 5 grids per run are too few for a 90th percentile.  The period
     quantiles come from single points run alone, round-robin over the
     grid, each checked against the reference outcome. *)
  let point_periods = periods / points in
  let next = ref 0 in
  let point_timing =
    timed_loop ~seconds:(0.4 *. seconds) ~kernel ~periods:point_periods (fun () ->
        let i = !next mod points in
        incr next;
        let r =
          Sweep_engine.run_prepared ~domains:1
            ~subset:(fun p -> p.Sweep_engine.index = i)
            prep
        in
        incr attempted;
        let same =
          Array.length r.outcomes = 1
          && compare r.outcomes.(0) reference.outcomes.(i) = 0
        in
        if not same then incr failed)
  in
  let per x = x /. float_of_int periods in
  let grid_s = float_of_int periods *. median timing.per_period in
  { metrics =
      end_to_end ~quantiles:point_timing ~setup_s ~timing
        ~minor:(per (g1.minor -. g0.minor)) ~major:(per (g1.major -. g0.major))
        ~rss_mb ();
    attempted = !attempted;
    failed = !failed;
    digest = Digest.to_hex (Digest.string reference_bytes);
    notes =
      timing_notes ~kernel ~setup_s timing
      @ [ ( "points_per_s",
            Printf.sprintf "%.4f 1/s (at reference speed)"
              (float_of_int (points * Array.length timing.per_period)
              /. timing.busy_scaled) );
          ( "period quantiles over",
            Printf.sprintf "%d single points on 1 domain"
              (Array.length point_timing.per_period) );
          ( "grid times (raw s)",
            String.concat " "
              (Array.to_list
                 (Array.map
                    (fun x -> Printf.sprintf "%.3f" (x *. float_of_int periods))
                    timing.per_period)) );
          ("words counted over", "the 1-domain check pass");
          ( "grid time (raw)",
            Printf.sprintf "check pass %.3f s, timed median %.3f s"
              one_domain_s grid_s ) ] }

(* Layer times from the benchmark's own spans around each call, and each
   point timed alone on 1 domain through [~subset]. *)
let run_traced ~seed ~seconds ~trace_file =
  let tracer = Tracer.create ~capacity:(1 lsl 18) ~clock:Tracer.Wall () in
  let spanned label f =
    let id = Tracer.intern tracer label in
    Tracer.span_begin tracer id;
    let t0 = now () in
    let x = f () in
    let dt = now () -. t0 in
    Tracer.span_end tracer id;
    (dt, x)
  in
  let reps n label f =
    let times = Array.make n 0. in
    let last = ref None in
    for i = 0 to n - 1 do
      let dt, x = spanned label f in
      times.(i) <- dt;
      last := Some x
    done;
    (1000. *. median times, Option.get !last)
  in
  let load_ms, spec = reps 5 "sweep_spec.load" (fun () -> load ~seed) in
  let prepare_ms, prep = reps 3 "sweep_engine.prepare" (fun () -> Sweep_engine.prepare spec) in
  let pts = Sweep_engine.prepared_points prep in
  let point_ms =
    Array.map
      (fun (p : Sweep_engine.point) ->
        let dt, _ =
          spanned "sweep_engine.point"
            (fun () ->
              Sweep_engine.run_prepared ~domains:1
                ~subset:(fun q -> q.Sweep_engine.index = p.index)
                prep)
        in
        1000. *. dt)
      pts
  in
  let run_times = Samples.create () and report_times = Samples.create () in
  let attempted = ref 0 in
  settle_gc ();
  let g0 = gc_mark () in
  let t_end = now () +. (seconds /. 2.) in
  (* Stop before a grid could overflow a domain's ring: the recorder
     must drop nothing. *)
  let fullest () =
    List.fold_left max 0
      (List.init (Tracer.slots tracer) (Tracer.slot_recorded tracer))
  in
  let room = ref true in
  while (now () < t_end && !room) || Samples.length run_times = 0 do
    let before = fullest () in
    let dt, r =
      spanned "sweep_engine.run" (fun () ->
          Sweep_engine.run_prepared ~domains ~tracer prep)
    in
    Samples.push run_times (1000. *. dt);
    let dt, _ = spanned "sweep_engine.report" (fun () -> report_bytes r) in
    Samples.push report_times (1000. *. dt);
    attempted := !attempted + Array.length pts;
    let after = fullest () in
    room := after + (after - before) <= Tracer.capacity tracer
  done;
  let g1 = gc_mark () in
  if Tracer.dropped tracer > 0 then failwith "trace: recorder dropped events";
  Trace_export.write_chrome tracer trace_file;
  let grids = float_of_int (Samples.length run_times) in
  let run_ms = median (Samples.to_array run_times) in
  { metrics =
      [ metric "sweep_spec.load_ms" load_ms "ms";
        metric "sweep_engine.prepare_ms" prepare_ms "ms";
        metric "sweep_engine.run_ms" run_ms "ms";
        metric "sweep_engine.report_ms" (median (Samples.to_array report_times)) "ms";
        metric "sweep_engine.point_ms_p50" (median point_ms) "ms";
        metric "sweep_engine.point_ms_max" (Array.fold_left Float.max 0. point_ms) "ms";
        metric "domain_pool.efficiency"
          (sum point_ms /. (float_of_int domains *. run_ms))
          "ratio";
        metric "gc.minor_collections"
          (float_of_int (g1.minor_gcs - g0.minor_gcs) /. grids)
          "count";
        metric "gc.major_collections"
          (float_of_int (g1.major_gcs - g0.major_gcs) /. grids)
          "count" ];
    attempted = !attempted;
    failed = 0;
    digest = "";
    notes = [ ("grids traced", Printf.sprintf "%.0f" grids) ] }
