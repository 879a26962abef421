let clock_name t =
  match Tracer.clock t with
  | Tracer.Untimed -> "untimed"
  | Tracer.Wall -> "wall"
  | Tracer.Fn _ -> "custom"

(* Untimed timestamps are per-track sequence numbers: keep them integral
   so the export is byte-deterministic.  Wall/custom clocks are seconds;
   Chrome wants microseconds. *)
let ts_json t ts =
  match Tracer.clock t with
  | Tracer.Untimed -> Json.Int (int_of_float ts)
  | Tracer.Wall | Tracer.Fn _ -> Json.Float (ts *. 1e6)

let chrome_json t =
  let events = ref [] in
  let push e = events := e :: !events in
  push
    (Json.Obj
       [ ("name", Json.String "process_name");
         ("ph", Json.String "M");
         ("pid", Json.Int 0);
         ("tid", Json.Int 0);
         ("args", Json.Obj [ ("name", Json.String "arpanet") ]) ]);
  let nslots = Tracer.slots t in
  for slot = 0 to nslots - 1 do
    push
      (Json.Obj
         [ ("name", Json.String "thread_name");
           ("ph", Json.String "M");
           ("pid", Json.Int 0);
           ("tid", Json.Int slot);
           ("args",
            Json.Obj [ ("name", Json.String (Printf.sprintf "domain%d" slot)) ])
         ])
  done;
  for slot = 0 to nslots - 1 do
    Tracer.iter_slot t slot (fun ~ts ~kind ~name ~a ~b ->
        let common suffix =
          ("name", Json.String (Tracer.name t name))
          :: ("ph",
              Json.String
                (match kind with
                | Tracer.Begin -> "B"
                | Tracer.End -> "E"
                | Tracer.Instant -> "i"
                | Tracer.Counter -> "C"))
          :: ("pid", Json.Int 0)
          :: ("tid", Json.Int slot)
          :: ("ts", ts_json t ts)
          :: suffix
        in
        match kind with
        | Tracer.Begin ->
          push
            (Json.Obj
               (common
                  (if a = 0 && b = 0 then []
                   else
                     [ ("args",
                        Json.Obj [ ("lo", Json.Int a); ("hi", Json.Int b) ]) ])))
        | Tracer.End -> push (Json.Obj (common []))
        | Tracer.Instant ->
          push
            (Json.Obj
               (common
                  [ ("s", Json.String "t");
                    ("args", Json.Obj [ ("v", Json.Int a) ]) ]))
        | Tracer.Counter ->
          push
            (Json.Obj (common [ ("args", Json.Obj [ ("value", Json.Int a) ]) ])))
  done;
  let per_track =
    List.init nslots (fun slot -> Json.Int (Tracer.slot_dropped t slot))
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
      ("otherData",
       Json.Obj
         [ ("clock", Json.String (clock_name t));
           ("capacity", Json.Int (Tracer.capacity t));
           ("dropped", Json.Int (Tracer.dropped t));
           ("droppedPerTrack", Json.List per_track) ]) ]

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (chrome_json t));
      output_char oc '\n')

type span_row = {
  name : string;
  count : int;
  total : float;
  self : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type digest = {
  tracks : (int * int) list;
  spans : span_row list;
  total_events : int;
  dropped : int;
  timed : bool;
}

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> 0.

(* Per-name accumulator: every closed span's duration (for exact
   percentiles) and the summed self time. *)
type acc = {
  mutable durations : float list;
  mutable sum : float;
  mutable self_sum : float;
}

(* An open span on a track's stack; [children] sums the durations of the
   spans closed directly inside it. *)
type frame = { fname : string; t0 : float; mutable children : float }

(* Nearest-rank percentile of a sorted array: the smallest value with at
   least [pct] % of the observations at or below it. *)
let rank sorted pct =
  let n = Array.length sorted in
  sorted.(Stdlib.max 0 (((pct * n) + 99) / 100 - 1))

let row name a =
  let sorted = Array.of_list a.durations in
  Array.sort Float.compare sorted;
  { name;
    count = Array.length sorted;
    total = a.sum;
    self = a.self_sum;
    p50 = rank sorted 50;
    p95 = rank sorted 95;
    p99 = rank sorted 99;
    max = sorted.(Array.length sorted - 1) }

let digest json =
  match Json.member "traceEvents" json with
  | Error e -> Error e
  | Ok (Json.List evs) ->
    let counts : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
    let spans : (string, acc) Hashtbl.t = Hashtbl.create 16 in
    let total = ref 0 in
    let close stack ts =
      match !stack with
      | [] -> ()
      | f :: rest ->
        stack := rest;
        let d = ts -. f.t0 in
        (match rest with p :: _ -> p.children <- p.children +. d | [] -> ());
        let a =
          match Hashtbl.find_opt spans f.fname with
          | Some a -> a
          | None ->
            let a = { durations = []; sum = 0.; self_sum = 0. } in
            Hashtbl.add spans f.fname a;
            a
        in
        a.durations <- d :: a.durations;
        a.sum <- a.sum +. d;
        a.self_sum <- a.self_sum +. (d -. f.children)
    in
    List.iter
      (fun ev ->
        let str key =
          match Json.member key ev with Ok (Json.String s) -> s | _ -> ""
        in
        let int key =
          match Json.member key ev with Ok (Json.Int i) -> i | _ -> 0
        in
        let ph = str "ph" in
        if ph <> "M" && ph <> "" then begin
          let tid = int "tid" in
          incr total;
          (match Hashtbl.find_opt counts tid with
          | Some r -> incr r
          | None -> Hashtbl.add counts tid (ref 1));
          let stack =
            match Hashtbl.find_opt stacks tid with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add stacks tid s;
              s
          in
          let ts =
            match Json.member "ts" ev with Ok v -> num v | Error _ -> 0.
          in
          match ph with
          | "B" -> stack := { fname = str "name"; t0 = ts; children = 0. } :: !stack
          | "E" -> close stack ts
          | _ -> ()
        end)
      evs;
    let other key =
      Result.bind (Json.member "otherData" json) (Json.member key)
    in
    let dropped = match other "dropped" with Ok (Json.Int i) -> i | _ -> 0 in
    let timed =
      match other "clock" with Ok (Json.String "untimed") -> false | _ -> true
    in
    let tracks =
      Hashtbl.fold (fun tid r acc -> (tid, !r) :: acc) counts []
      |> List.sort compare
    in
    let spans =
      Hashtbl.fold (fun name a acc -> row name a :: acc) spans []
      |> List.sort (fun a b -> String.compare a.name b.name)
    in
    Ok { tracks; spans; total_events = !total; dropped; timed }
  | Ok _ -> Error "traceEvents is not a list"

let profile t =
  match digest (chrome_json t) with
  | Ok d -> d
  | Error e -> invalid_arg ("Trace_export.profile: " ^ e)

(* Timed traces carry microseconds: totals print in ms, the per-span
   figures in us.  Untimed ones carry sequence numbers, printed as is. *)
let pp_profile ppf d =
  let ms, big, small = if d.timed then (1e-3, " ms", " us") else (1., "", "") in
  Format.fprintf ppf "@[<v>%-24s %8s %12s %12s %10s %10s %10s %10s %10s"
    "span" "count" ("total" ^ big) ("self" ^ big) ("mean" ^ small)
    ("p50" ^ small) ("p95" ^ small) ("p99" ^ small) ("max" ^ small);
  List.iter
    (fun r ->
      Format.fprintf ppf
        "@,%-24s %8d %12.2f %12.2f %10.1f %10.1f %10.1f %10.1f %10.1f" r.name
        r.count (ms *. r.total) (ms *. r.self)
        (r.total /. float_of_int r.count)
        r.p50 r.p95 r.p99 r.max)
    (List.sort (fun a b -> Float.compare b.total a.total) d.spans);
  Format.fprintf ppf "@,dropped events: %d@]" d.dropped

let pp_digest ppf d =
  Format.fprintf ppf "@[<v>events: %d" d.total_events;
  List.iter
    (fun (tid, n) -> Format.fprintf ppf "@,track %d: %d events" tid n)
    d.tracks;
  Format.fprintf ppf "@,%a@]" pp_profile d
