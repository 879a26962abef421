(* The repository benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --rev REV --nproc N [--out-dir DIR]

   With --trace 0 it prints the end-to-end metrics of one workload; with
   --trace 1 the per-layer metrics of a traced run, and writes the span
   file DIR/NAME.trace.json.  Every run writes its full record, stamped
   with provenance, to DIR/NAME-seedN-traceT.json.  The last line of
   standard output is the result object; the exit code is non-zero when
   any correctness check failed.  run.py builds this program and passes
   --rev and --nproc. *)

open Common

let workloads =
  [ Flow_bench.arpanet_dspf_flow.name;
    Flow_bench.mesh200_hnspf_megaflow.name;
    Packet_bench.name;
    Sweep_bench.name ]

(* Domains the timed work runs on. *)
let domains_of ~trace = function
  | "mesh200_hnspf_megaflow" -> 2
  | "paper_sweep" when trace -> 2
  | _ -> 1

(* Every per-layer metric, printed on every workload; a layer a workload
   does not run reads 0. *)
let per_layer_units =
  [ ("spf_engine.refresh_ms", "ms");
    ("spf_engine.minhop_refresh_ms", "ms");
    ("spf_engine.sources_recomputed", "count");
    ("spf_engine.sources_repaired", "count");
    ("spf_engine.sources_reused", "count");
    ("spf_engine.nodes_resettled", "count");
    ("spf_engine.reuse_ratio", "ratio");
    ("spf_engine.minor_words", "words");
    ("flooding.flood_ms", "ms");
    ("flooding.floods", "count");
    ("flooding.transmissions", "count");
    ("flooding.minor_words", "words");
    ("load_assign.assign_ms", "ms");
    ("load_assign.metrics_ms", "ms");
    ("load_assign.flows_per_s", "1/s");
    ("load_assign.minor_words", "words");
    ("queueing.mm1k_ms", "ms");
    ("metric.update_ms", "ms");
    ("metric.updates", "count");
    ("metric.minor_words", "words");
    ("flow_sim.accounting_ms", "ms");
    ("flow_sim.unaccounted_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.pending", "count");
    ("engine.minor_words_per_event", "words");
    ("network.generated", "count");
    ("network.delivered", "count");
    ("network.dropped", "count");
    ("network.delivered_ratio", "ratio");
    ("sweep_spec.load_ms", "ms");
    ("sweep_engine.prepare_ms", "ms");
    ("sweep_engine.run_ms", "ms");
    ("sweep_engine.report_ms", "ms");
    ("sweep_engine.point_ms_p50", "ms");
    ("sweep_engine.point_ms_max", "ms");
    ("domain_pool.efficiency", "ratio") ]

let fill_layers measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> metric name 0. unit_)
    per_layer_units

let run_workload ~workload ~seed ~seconds ~trace ~out_dir =
  let trace_file = Filename.concat out_dir (workload ^ ".trace.json") in
  let flow spec =
    if trace then
      Flow_bench.run_traced spec ~seed ~seconds ~trace_file
    else Flow_bench.run spec ~seed ~seconds
  in
  match workload with
  | "arpanet_dspf_flow" -> flow Flow_bench.arpanet_dspf_flow
  | "mesh200_hnspf_megaflow" -> flow Flow_bench.mesh200_hnspf_megaflow
  | "arpanet_hnspf_packet_hbh" ->
    if trace then Packet_bench.run_traced ~seed ~seconds ~trace_file
    else Packet_bench.run ~seed ~seconds
  | "paper_sweep" ->
    if trace then Sweep_bench.run_traced ~seed ~seconds ~trace_file
    else Sweep_bench.run ~seed ~seconds
  | w ->
    failwith
      (Printf.sprintf "unknown workload %S (have: %s)" w
         (String.concat ", " workloads))

(* The span file must digest the way [replay] digests it. *)
let check_trace_file path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Result.bind (Json.of_string text) Routing_obs.Trace_export.digest with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok d when d.Routing_obs.Trace_export.total_events = 0 ->
    failwith (path ^ ": trace contains no events")
  | Ok d -> d.Routing_obs.Trace_export.total_events

let metric_json m =
  Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics)) ])

let main () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and rev = ref "" and nproc = ref 0 in
  let out_dir = ref ".bench_out" in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--rev", Arg.Set_string rev, "REV source revision for provenance");
      ("--nproc", Arg.Set_int nproc, "N online processors");
      ("--out-dir", Arg.Set_string out_dir, "DIR records and span files") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --rev REV \
     --nproc N";
  if not (List.mem !workload workloads) then
    failwith
      (Printf.sprintf "--workload must be one of: %s" (String.concat ", " workloads));
  if !seed < 0 then failwith "--seed N (N >= 0) is required";
  if !seconds <= 0. then failwith "--seconds S (S > 0) is required";
  if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
  if !rev = "" || !rev = "unknown" then
    failwith "--rev must name the source revision; refusing to stamp \"unknown\"";
  if !nproc < 1 then failwith "--nproc N (N >= 1) is required";
  let trace = !trace = 1 in
  let prov =
    { rev = !rev;
      date = iso_date ();
      nproc = !nproc;
      recommended_domains = Domain.recommended_domain_count ();
      ocaml = Sys.ocaml_version;
      workload = !workload;
      domains = domains_of ~trace !workload;
      seed = !seed;
      trace }
  in
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  Printf.printf "provenance: %s\n%!" (Json.to_string (provenance_json prov));
  let r =
    run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
      ~out_dir:!out_dir
  in
  let notes =
    if trace then
      let path = Filename.concat !out_dir (!workload ^ ".trace.json") in
      r.notes @ [ ("span file", Printf.sprintf "%s (%d events)" path (check_trace_file path)) ]
    else r.notes
  in
  let metrics = if trace then fill_layers r.metrics else r.metrics in
  let failed_fraction = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  List.iter
    (fun m -> Printf.printf "%-34s %.6g %s\n" m.name m.value m.unit_)
    metrics;
  Printf.printf "%-34s %.6g (%d of %d checked units)\n" "failed_fraction"
    failed_fraction r.failed r.attempted;
  if r.digest <> "" then Printf.printf "%-34s %s\n" "output_digest" r.digest;
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) notes;
  let record =
    Json.Obj
      [ ("provenance", provenance_json prov);
        ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("failed_fraction", Json.Float failed_fraction);
        ("output_digest", Json.String r.digest);
        ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) notes)) ]
  in
  let record_file =
    Filename.concat !out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed (Bool.to_int trace))
  in
  Out_channel.with_open_text record_file (fun oc ->
      output_string oc (Json.to_string_pretty record);
      output_char oc '\n');
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = r.failed = 0 && finite in
  print_endline
    (result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  if not correct then exit 1

let () =
  try main () with
  | Flow_bench.Gate_failed msg ->
    prerr_endline ("replay identity gate failed, no per-layer numbers: " ^ msg);
    exit 1
  | Failure msg | Sys_error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 2
