open! Import

type t = (Obs_metrics.gauge * (Spf_engine.stats -> int)) list

let counters =
  [ ("refreshes", fun (s : Spf_engine.stats) -> s.refreshes);
    ("skipped", fun s -> s.skipped);
    ("full_sweeps", fun s -> s.full_sweeps);
    ("sources_recomputed", fun s -> s.sources_recomputed);
    ("sources_repaired", fun s -> s.sources_repaired);
    ("sources_reused", fun s -> s.sources_reused);
    ("nodes_resettled", fun s -> s.nodes_resettled) ]

let create m =
  List.map
    (fun (which, get) ->
      (Obs_metrics.gauge m ~labels:[ ("counter", which) ] "spf_engine", get))
    counters

let set t s =
  List.iter (fun (g, get) -> Obs_metrics.set g (float_of_int (get s))) t
