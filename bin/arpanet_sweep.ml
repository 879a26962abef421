(* arpanet_sweep — run a declared grid of simulator experiments.

     dune exec bin/arpanet_sweep.exe -- scenarios/paper_sweep.json
     dune exec bin/arpanet_sweep.exe -- sweep.json -o report.json --csv report.csv
     dune exec bin/arpanet_sweep.exe -- sweep.json --domains 4

   The spec (see Sweep_spec) declares scenario, metric, load-scale and
   seed axes; every grid point runs its own flow simulator and the
   per-point telemetry registries fold into one JSON report (plus an
   optional CSV).  Scenarios are parsed once into shared immutable
   state and points are distributed over a work-stealing domain pool;
   the report's bytes never depend on the domain count.

   The spec is linted first (the same S1xx diagnostics as
   `arpanet_check --sweep`); errors refuse the run. *)

module Diagnostic = Routing_check.Diagnostic
module Sweep_check = Routing_check.Sweep_check
module Sweep_engine = Routing_sweep.Sweep_engine
module Domain_pool = Routing_metric.Domain_pool
module Obs_json = Routing_obs.Json
module Tracer = Routing_obs.Tracer
module Trace_export = Routing_obs.Trace_export

(* Reports are written atomically (tmp + rename) so an interrupted run
   never leaves a half-written file behind. *)
let write_text path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

(* The report's summary views on the console: the route-stability
   ranking when there is something to compare, the located critical-load
   knees whenever a ramp produced them. *)
let print_summary (report : Sweep_engine.report) =
  (match report.rankings with
  | [] | [ _ ] -> ()
  | rankings ->
    Format.printf "route stability (most stable first):@.";
    List.iter
      (fun (r : Sweep_engine.ranking) ->
        Format.printf
          "  %d. %s/%s  score %d  routes %.2f/period  nh-flips %.2f  \
           link-flips %.2f@."
          r.r_rank r.r_scenario
          (Routing_metric.Metric.kind_name r.r_metric)
          r.r_score r.r_route_changes r.r_nh_flips r.r_link_flips)
      rankings);
  List.iter
    (fun (k : Sweep_engine.knee) ->
      Format.printf
        "critical load %s/%s: delay knee at x%g (%.1f ms rtt), throughput \
         knee at x%g (%.3g bps)@."
        k.k_scenario
        (Routing_metric.Metric.kind_name k.k_metric)
        k.k_scale_delay k.k_delay_ms k.k_scale_throughput k.k_throughput_bps)
    report.knees

let run_sweep ~quiet ~out ~csv_out ~summary_out ~domains ~chrome_trace spec =
  let t0 = Unix.gettimeofday () in
  (* Untimed clock: the trace orders events by sequence number, so the
     file is deterministic and replay digests are comparable across
     machines.  The report bytes never depend on the tracer. *)
  let tracer =
    match chrome_trace with
    | None -> Tracer.null
    | Some _ -> Tracer.create ~clock:Tracer.Untimed ()
  in
  let report = Sweep_engine.run ~domains ~tracer spec in
  let elapsed = Unix.gettimeofday () -. t0 in
  write_text out (Obs_json.to_string_pretty report.Sweep_engine.json ^ "\n");
  Option.iter (fun path -> write_text path (Sweep_engine.csv report)) csv_out;
  Option.iter
    (fun path -> write_text path (Sweep_engine.summary_csv report))
    summary_out;
  Option.iter
    (fun path ->
      Trace_export.write_chrome tracer path;
      if not quiet then
        Format.printf "chrome trace: %s (%d domain track(s), %d dropped)@." path
          (Tracer.slots tracer) (Tracer.dropped tracer))
    chrome_trace;
  if not quiet then begin
    let n = Array.length report.Sweep_engine.outcomes in
    Format.printf
      "sweep: %d point%s in %.1f s (%.2f points/s, %d domain%s) -> %s@." n
      (if n = 1 then "" else "s")
      elapsed (float_of_int n /. Float.max elapsed 1e-9) domains
      (if domains = 1 then "" else "s")
      out;
    Option.iter (Format.printf "csv: %s@.") csv_out;
    Option.iter (Format.printf "summary: %s@.") summary_out;
    print_summary report
  end;
  0

let run spec_path out csv_out summary_out domains_arg chrome_trace no_check
    quiet =
  let domains = Domain_pool.resolve ?requested:domains_arg () in
  let diags, spec = Sweep_check.check_file spec_path in
  let blocking =
    List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags
  in
  if diags <> [] && not quiet then
    Diagnostic.pp_report Format.err_formatter diags;
  match (spec, blocking) with
  | None, _ -> Diagnostic.exit_code diags
  | Some _, _ :: _ when not no_check -> Diagnostic.exit_code diags
  | Some spec, _ ->
    run_sweep ~quiet ~out ~csv_out ~summary_out ~domains ~chrome_trace spec

open Cmdliner

let cmd =
  let spec =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SWEEP.json"
             ~doc:"Sweep specification: a JSON object with a \
                   $(b,scenarios) list (builtin $(b,arpanet)/$(b,milnet) \
                   or .scn paths) and optional $(b,metrics), $(b,scales), \
                   $(b,seeds) (list or {\"from\",\"count\"}), \
                   $(b,periods), $(b,warmup) fields.")
  in
  let out =
    Arg.(value & opt string "sweep_report.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON report (merged telemetry plus \
                   a per-point indicator array).  Written atomically.")
  in
  let csv_out =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also write one CSV row of Table-1 indicators per grid \
                   point.")
  in
  let summary_out =
    Arg.(value & opt (some string) None
         & info [ "summary" ] ~docv:"FILE"
             ~doc:"Also write the summary CSV: one $(b,ranking) row per \
                   (scenario, metric) pair ordering the metrics by their \
                   route-change counters, plus one $(b,knee) row per \
                   critical-load knee when the spec declares a \
                   $(b,critical_load) ramp.")
  in
  let nonneg_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a domain count >= 0, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let domains =
    Arg.(value & opt (some nonneg_int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domains to distribute grid points over.  $(b,0) sizes \
                   to this machine; unset defers to $(b,ARPANET_DOMAINS) \
                   (same rules) and then 1 — one resolution path shared \
                   with $(b,arpanet_sim).  The report is byte-identical \
                   for every value.")
  in
  let chrome_trace =
    Arg.(value & opt (some string) None
         & info [ "chrome-trace" ] ~docv:"FILE.trace.json"
             ~doc:"Flight-record the sweep and write a Chrome trace-event \
                   file to $(docv): one $(b,sweep_point) span per grid \
                   point on the track of the domain that ran it, with the \
                   simulator's routing periods and SPF work nested inside. \
                   Loadable in Perfetto; $(b,replay) $(docv) prints a \
                   digest.  Deterministic (sequence-numbered timestamps).")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ]
             ~doc:"Run even when the spec lint reports errors (S1xx \
                   diagnostics still print).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ]
             ~doc:"Suppress diagnostics and the summary line; only the \
                   report files are produced.")
  in
  Cmd.v
    (Cmd.info "arpanet_sweep"
       ~doc:"Run a scenario/metric/load/seed sweep grid in parallel"
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 when the sweep ran; otherwise the spec lint's exit code \
               (1 warnings, 2 errors)." ])
    Term.(
      const run $ spec $ out $ csv_out $ summary_out $ domains $ chrome_trace
      $ no_check $ quiet)

let () = exit (Cmd.eval' cmd)
