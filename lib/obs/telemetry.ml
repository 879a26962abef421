type t = {
  metrics : Metrics.t;
  sink : Sink.t;
  tracer : Tracer.t;
  gc : bool;
  osc_window_s : float;
  osc_max_flips : int;
  mutable osc : Oscillation.t option;
}

let create ?(sink = Sink.null) ?(tracer = Tracer.null) ?(gc = false)
    ?(osc_window_s = 120.) ?(osc_max_flips = 4) () =
  { metrics = Metrics.create ();
    sink;
    tracer;
    gc;
    osc_window_s;
    osc_max_flips;
    osc = None }

let metrics t = t.metrics

let sink t = t.sink

let tracer t = t.tracer

let gc_enabled t = t.gc

let init_oscillation t ~links =
  match t.osc with
  | Some o -> o
  | None ->
    let o =
      Oscillation.create ~window_s:t.osc_window_s ~max_flips:t.osc_max_flips
        ~links ()
    in
    t.osc <- Some o;
    o

let oscillation t = t.osc

let oscillation_flag t =
  let flags = Metrics.counter t.metrics "oscillation_flags" in
  fun ~link ~time ~flips ->
    Metrics.inc flags;
    Sink.emit t.sink (fun () ->
        Json.Obj
          [ ("t", Json.Float time);
            ("ev", Json.String "oscillation");
            ("link", Json.Int link);
            ("flips", Json.Int flips) ])

let snapshot_json t =
  let osc_json =
    match t.osc with
    | None -> Json.Null
    | Some o ->
      Json.Obj
        [ ("flagged",
           Json.List (List.map (fun i -> Json.Int i) (Oscillation.flagged o)));
          ("ever_flagged",
           Json.List
             (List.map (fun i -> Json.Int i) (Oscillation.ever_flagged o)));
          ("flag_count", Json.Int (Oscillation.flag_count o)) ]
  in
  Metrics.to_json t.metrics
    ~extra:
      [ ("oscillation", osc_json);
        ("events_emitted", Json.Int (Sink.emitted t.sink)) ]

let write_metrics t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (snapshot_json t));
      output_char oc '\n')

let close t = Sink.close t.sink
