(* replay — run a scripted scenario file on the flow simulator, digest a
   JSONL trace captured with `arpanet_sim --trace-out`, or digest a Chrome
   trace-event file captured with `--chrome-trace`.

     dune exec bin/replay.exe -- scenarios/outage_demo.scn
     dune exec bin/replay.exe -- my.scn --periods 120 --metric dspf --csv
     dune exec bin/replay.exe -- trace.jsonl
     dune exec bin/replay.exe -- trace.jsonl --events
     dune exec bin/replay.exe -- sweep.trace.json

   The scenario format is Routing_topology.Serial plus timed `at` events; see
   lib/sim/script.mli and scenarios/outage_demo.scn.  A file ending in
   `.jsonl` is treated as a trace: one JSON object per line, field "ev"
   naming the event type (see lib/sim/trace.mli).  A file ending in
   `.trace.json` is treated as a Chrome trace-event flight recording (see
   lib/obs/trace_export.mli): the digest prints per-track event counts and
   the same span table `arpanet_sim --profile` prints, and a malformed or
   empty trace exits 1 — CI uses this to validate sweep flight
   recordings. *)

open Routing_topology
module Script = Routing_sim.Script
module Flow_sim = Routing_sim.Flow_sim
module Measure = Routing_sim.Measure
module Metric = Routing_metric.Metric
module Table = Routing_stats.Table
module Trace = Routing_sim.Trace
module Obs_json = Routing_obs.Json
module Trace_export = Routing_obs.Trace_export

(* Summarize (and with [show_events], pretty-print) a JSONL trace.  Event
   types this binary predates — e.g. a later simulator adding new "ev"
   values — still count in the summary; only malformed JSON is fatal. *)
let main_jsonl path show_events =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let drops : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let total = ref 0 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let ic = open_in path in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Obs_json.of_string line with
         | Error msg ->
           Format.eprintf "%s:%d: %s@." path !lineno msg;
           exit 1
         | Ok json ->
           incr total;
           let name =
             match Result.bind (Obs_json.member "ev" json) Obs_json.to_str with
             | Ok s -> s
             | Error _ -> "(no ev field)"
           in
           bump counts name;
           (match Result.bind (Obs_json.member "t" json) Obs_json.to_float with
           | Ok t ->
             if t < !t_min then t_min := t;
             if t > !t_max then t_max := t
           | Error _ -> ());
           if name = "drop" then begin
             match
               Result.bind (Obs_json.member "reason" json) Obs_json.to_str
             with
             | Ok reason -> bump drops reason
             | Error _ -> ()
           end;
           if show_events then begin
             match Trace.of_json json with
             | Ok (time, event) ->
               Format.printf "%10.3f  %a@." time Trace.pp_event_ids event
             | Error _ ->
               (* Not a Trace event (period summaries, oscillation flags,
                  future additions): show the raw line. *)
               Format.printf "%10s  %s@." "" (Obs_json.to_string json)
           end
       end
     done
   with End_of_file -> close_in ic);
  if show_events && !total > 0 then Format.printf "@.";
  Format.printf "%s: %d events" path !total;
  if !total > 0 && !t_min <= !t_max then
    Format.printf " over t = %.1f .. %.1f s" !t_min !t_max;
  Format.printf "@.";
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  List.iter
    (fun (name, n) -> Format.printf "  %-12s %d@." name n)
    (sorted counts);
  if Hashtbl.length drops > 0 then begin
    Format.printf "drops by reason:@.";
    List.iter
      (fun (reason, n) -> Format.printf "  %-12s %d@." reason n)
      (sorted drops)
  end

(* Digest a Chrome trace-event flight recording.  An unreadable, malformed
   or empty trace is a failure — the digest doubles as CI validation that
   --chrome-trace produced a real recording. *)
let main_chrome path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Result.bind (Obs_json.of_string text) Trace_export.digest with
  | Error msg ->
    Format.eprintf "%s: %s@." path msg;
    exit 1
  | Ok d ->
    Format.printf "%s: %a@." path Trace_export.pp_digest d;
    if d.Trace_export.total_events = 0 then begin
      Format.eprintf "%s: trace contains no events@." path;
      exit 1
    end

let main path periods metric warmup csv =
  match Script.load path with
  | Error message ->
    Format.eprintf "%s: %s@." path message;
    exit 1
  | Ok script ->
    Format.printf "scenario: %a, %a, %d events@.@." Graph.pp_summary
      script.Script.graph Traffic_matrix.pp_summary script.Script.traffic
      (List.length script.Script.events);
    if csv then
      print_endline
        "time_s,offered_bps,delivered_bps,dropped_bps,mean_delay_ms,updates,\
         max_utilization,congested_links,routes_changed";
    let sim =
      Script.run ~metric script ~periods ~on_period:(fun _ stats ->
          if csv then
            Printf.printf "%.0f,%.0f,%.0f,%.0f,%.1f,%d,%.3f,%d,%d\n"
              stats.Flow_sim.time_s stats.Flow_sim.offered_bps
              stats.Flow_sim.delivered_bps stats.Flow_sim.dropped_bps
              (1000. *. stats.Flow_sim.mean_delay_s)
              stats.Flow_sim.updates stats.Flow_sim.max_utilization
              stats.Flow_sim.congested_links stats.Flow_sim.routes_changed)
    in
    if not csv then begin
      let i = Flow_sim.indicators sim ~skip:warmup () in
      print_string
        (Table.to_string
           (Measure.comparison_table ~title:"Replay indicators"
              [ (Filename.basename path, i) ]))
    end

open Cmdliner

let metric_arg =
  let parse s =
    match Metric.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown metric %S" s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Metric.kind_name k))

let cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SCENARIO" ~doc:"Scenario file with optional at-events.")
  in
  let periods =
    Arg.(value & opt int 90
         & info [ "p"; "periods" ] ~docv:"N" ~doc:"Routing periods to run (10 s each).")
  in
  let metric =
    Arg.(value & opt metric_arg Metric.Hn_spf
         & info [ "m"; "metric" ] ~docv:"METRIC" ~doc:"Initial routing metric.")
  in
  let warmup =
    Arg.(value & opt int 10
         & info [ "warmup" ] ~docv:"N" ~doc:"Periods excluded from the summary.")
  in
  let csv =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Emit one CSV row per period instead of a summary.")
  in
  let events =
    Arg.(value & flag
         & info [ "events" ]
             ~doc:"JSONL traces only: print every event, one line each, \
                   before the summary.")
  in
  let run path periods metric warmup csv events =
    if Filename.check_suffix path ".trace.json" then main_chrome path
    else if Filename.extension path = ".jsonl" then main_jsonl path events
    else main path periods metric warmup csv
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a scripted scenario on the flow simulator, or summarize \
             a JSONL trace from arpanet_sim --trace-out or a Chrome trace \
             from --chrome-trace")
    Term.(const run $ file $ periods $ metric $ warmup $ csv $ events)

let () = exit (Cmd.eval cmd)
