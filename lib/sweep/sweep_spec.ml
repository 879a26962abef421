open! Import

type scenario = Builtin of string | File of string

type ramp = { ramp_from : float; ramp_to : float; ramp_steps : int }

type t = {
  scenarios : scenario list;
  metrics : Metric.kind list;
  scales : float list;
  seeds : int list;
  periods : int;
  warmup : int;
  critical_load : ramp option;
}

type severity = Error | Warning

type issue = { severity : severity; code : string; message : string }

let error code fmt = Printf.ksprintf (fun message -> { severity = Error; code; message }) fmt

let warning code fmt =
  Printf.ksprintf (fun message -> { severity = Warning; code; message }) fmt

let errors issues = List.filter (fun i -> i.severity = Error) issues

let scenario_name = function Builtin n -> n | File p -> p

let builtins = [ "arpanet"; "milnet" ]

let scenario_of_string s =
  if List.mem s builtins then Builtin s else File s

(* ---------------------------------------------------------------- *)
(* Parsing.  The spec is a small JSON object; every shape problem is one
   S100, so a typo'd spec reads as a single actionable message rather
   than a cascade. *)

let ( let* ) = Result.bind

let str_list field json =
  match Obs_json.member field json with
  | Error _ -> Ok None
  | Ok (Obs_json.List items) ->
    let* strings =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* s = Obs_json.to_str item in
          Ok (s :: acc))
        (Ok []) items
    in
    Ok (Some (List.rev strings))
  | Ok _ -> Result.Error (Printf.sprintf "%S must be a list of strings" field)

let float_list field json =
  match Obs_json.member field json with
  | Error _ -> Ok None
  | Ok (Obs_json.List items) ->
    let* floats =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* f = Obs_json.to_float item in
          Ok (f :: acc))
        (Ok []) items
    in
    Ok (Some (List.rev floats))
  | Ok _ -> Result.Error (Printf.sprintf "%S must be a list of numbers" field)

let int_field ~default field json =
  match Obs_json.member field json with
  | Error _ -> Ok default
  | Ok v ->
    (match Obs_json.to_int v with
     | Ok n -> Ok n
     | Error _ -> Result.Error (Printf.sprintf "%S must be an integer" field))

(* Axis lengths a spec may ask the parser to expand.  Checked before
   anything is built, so a hostile count fails fast with a located error
   instead of exhausting memory. *)
let max_seed_count = 100_000

let max_ramp_steps = 10_000

(* Every shape problem is one S100; the caps above carry their axis's
   own code (S104 seeds, S109 ramp). *)
let shape r = Result.map_error (fun msg -> error "S100" "bad sweep spec: %s" msg) r

(* [seeds] is either an explicit list or a [{"from": n, "count": m}]
   range; ranges keep big sweeps readable. *)
let seeds_field json =
  match Obs_json.member "seeds" json with
  | Error _ -> Ok [ 0 ]
  | Ok (Obs_json.List items) ->
    let* seeds =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Obs_json.to_int item with
          | Ok n -> Ok (n :: acc)
          | Error _ -> shape (Result.Error "\"seeds\" entries must be integers"))
        (Ok []) items
    in
    Ok (List.rev seeds)
  | Ok (Obs_json.Obj _ as range) ->
    let* from = shape (int_field ~default:0 "from" range) in
    let* count =
      shape
        (match Obs_json.member "count" range with
         | Error _ -> Result.Error "seed range needs a \"count\" field"
         | Ok v ->
           (match Obs_json.to_int v with
            | Ok n -> Ok n
            | Error _ -> Result.Error "\"count\" must be an integer"))
    in
    (* A degenerate range still parses; lint flags it as S104 so the
       grid-shape report can point at the axis rather than the parser. *)
    if count > max_seed_count then
      Result.Error
        (error "S104" "seed range count %d exceeds the limit of %d" count
           max_seed_count)
    else if count <= 0 then Ok []
    else Ok (List.init count (fun i -> from + i))
  | Ok _ ->
    shape
      (Result.Error
         "\"seeds\" must be a list of integers or {\"from\",\"count\"}")

(* The [critical_load] ramp expands into an evenly spaced scale grid at
   parse time, so the engine sees an ordinary scale axis.  Degenerate
   ramps (flagged by lint as S109) collapse to their starting scale
   rather than failing the parse, keeping every grid problem in the lint
   report. *)
let ramp_scales r =
  if r.ramp_steps >= 2 && r.ramp_to > r.ramp_from then
    List.init r.ramp_steps (fun i ->
        r.ramp_from
        +. ((r.ramp_to -. r.ramp_from) *. float_of_int i
            /. float_of_int (r.ramp_steps - 1)))
  else [ r.ramp_from ]

let ramp_field json =
  match Obs_json.member "critical_load" json with
  | Error _ -> Ok None
  | Ok (Obs_json.Obj _ as r) ->
    let req field =
      match Obs_json.member field r with
      | Error _ ->
        Result.Error
          (Printf.sprintf "\"critical_load\" needs a %S field" field)
      | Ok v ->
        (match Obs_json.to_float v with
         | Ok f -> Ok f
         | Error _ ->
           Result.Error
             (Printf.sprintf "\"critical_load\" %S must be a number" field))
    in
    let* ramp_from = shape (req "from") in
    let* ramp_to = shape (req "to") in
    let* ramp_steps = shape (int_field ~default:8 "steps" r) in
    if ramp_steps > max_ramp_steps then
      Result.Error
        (error "S109" "critical_load steps %d exceeds the limit of %d"
           ramp_steps max_ramp_steps)
    else Ok (Some { ramp_from; ramp_to; ramp_steps })
  | Ok _ ->
    shape
      (Result.Error "\"critical_load\" must be {\"from\",\"to\",\"steps\"}")

let parse text =
  let* json =
    shape
      (match Obs_json.of_string text with
       | Ok (Obs_json.Obj _ as j) -> Ok j
       | Ok _ -> Result.Error "spec must be a JSON object"
       | Error e -> Result.Error (Printf.sprintf "not valid JSON: %s" e))
  in
  let* scenarios =
    shape
      (match str_list "scenarios" json with
       | Ok None -> Result.Error "missing required \"scenarios\" list"
       | Ok (Some ss) -> Ok (List.map scenario_of_string ss)
       | Error e -> Result.Error e)
  in
  let* metrics =
    shape
      (match str_list "metrics" json with
       | Ok None -> Ok [ Metric.Hn_spf ]
       | Ok (Some names) ->
         List.fold_left
           (fun acc name ->
             let* acc = acc in
             match Metric.kind_of_name name with
             | Some k -> Ok (k :: acc)
             | None -> Result.Error (Printf.sprintf "unknown metric %S" name))
           (Ok []) names
         |> Result.map List.rev
       | Error e -> Result.Error e)
  in
  let* scales = shape (float_list "scales" json) in
  let* critical_load = ramp_field json in
  let* () =
    match (scales, critical_load) with
    | Some _, Some _ ->
      shape
        (Result.Error
           "\"scales\" and \"critical_load\" are mutually exclusive: the \
            ramp generates the scale axis")
    | _ -> Ok ()
  in
  let scales =
    match critical_load with
    | Some r -> ramp_scales r
    | None -> Option.value scales ~default:[ 1.0 ]
  in
  let* seeds = seeds_field json in
  let* periods = shape (int_field ~default:60 "periods" json) in
  let* warmup = shape (int_field ~default:0 "warmup" json) in
  Ok { scenarios; metrics; scales; seeds; periods; warmup; critical_load }

(* ---------------------------------------------------------------- *)
(* Lint.  Every grid problem in one pass, stable codes, so the CLI can
   refuse a bad spec before spawning domains (and [routing_check] can
   surface the same findings). *)

let duplicates ~to_string values =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun v ->
      let key = to_string v in
      if Hashtbl.mem seen key then Some key
      else (
        Hashtbl.add seen key ();
        None))
    values

let axis_issues name ~to_string values =
  let empty =
    if values = [] then [ error "S102" "empty %s axis: the grid has no points" name ]
    else []
  in
  let dups =
    List.map
      (fun v ->
        warning "S103" "duplicate %s %s: the grid repeats identical points" name v)
      (duplicates ~to_string values)
  in
  empty @ dups

let lint_scenario sc =
  match sc with
  | Builtin _ -> []
  | File path ->
    if not (Sys.file_exists path) then
      [ error "S101" "unknown scenario %S: no such builtin or file" path ]
    else (
      match Script.load path with
      | Ok _ -> []
      | Error e -> [ error "S101" "scenario %S does not parse: %s" path e ])

let lint t =
  let scenario_axis =
    axis_issues "scenario" ~to_string:scenario_name t.scenarios
    @ List.concat_map lint_scenario t.scenarios
  in
  let metric_axis = axis_issues "metric" ~to_string:Metric.kind_name t.metrics in
  let scale_axis =
    axis_issues "scale" ~to_string:(Printf.sprintf "%g") t.scales
    @ List.concat_map
        (fun s ->
          if s <= 0. then [ error "S105" "scale %g is not positive" s ]
          else if s > 10. then
            [ warning "S105" "scale %g is outside the modelled range (0, 10]" s ]
          else [])
        t.scales
  in
  let seed_axis =
    axis_issues "seed" ~to_string:string_of_int t.seeds
    @ List.concat_map
        (fun s -> if s < 0 then [ error "S104" "negative seed %d" s ] else [])
        t.seeds
  in
  let ramp_axis =
    match t.critical_load with
    | None -> []
    | Some r ->
      (if r.ramp_steps < 3 then
         [ error "S109"
             "critical_load needs at least 3 steps to locate a knee (got %d)"
             r.ramp_steps ]
       else [])
      @ (if r.ramp_to <= r.ramp_from then
           [ error "S109"
               "critical_load ramp is not increasing: to (%g) <= from (%g)"
               r.ramp_to r.ramp_from ]
         else [])
  in
  let budget =
    (if t.periods <= 0 then [ error "S106" "periods must be positive (got %d)" t.periods ]
     else [])
    @ (if t.warmup < 0 then [ error "S106" "warmup must be non-negative (got %d)" t.warmup ]
       else if t.periods > 0 && t.warmup >= t.periods then
         [ error "S106" "warmup (%d) consumes every period (%d): no measured periods remain"
             t.warmup t.periods ]
       else [])
  in
  scenario_axis @ metric_axis @ scale_axis @ ramp_axis @ seed_axis @ budget

let lint_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> ([ error "S100" "cannot read sweep spec: %s" e ], None)
  | text ->
    (match parse text with
     | Result.Error issue -> ([ issue ], None)
     | Ok t -> (lint t, Some t))

let load path =
  let issues, t = lint_file path in
  match errors issues with
  | first :: _ -> Result.Error (Printf.sprintf "[%s] %s" first.code first.message)
  | [] ->
    (match t with
     | Some t -> Ok t
     | None -> Result.Error "unreadable sweep spec")
