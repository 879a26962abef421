(* Helpers shared by every workload: the clock, order statistics, memory
   and allocation readings, provenance, and the result record. *)

module Json = Routing_obs.Json

let now = Unix.gettimeofday

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let to_array t = Array.sub t.data 0 t.len
end

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5

let sum samples = Array.fold_left ( +. ) 0. samples

let mean samples = sum samples /. float_of_int (Array.length samples)

(* Run [f] [reps] times, timing each; the median time and the last
   result.  Earlier results are dropped before the next repetition. *)
let time_reps ~reps f =
  let times = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    let t0 = now () in
    let x = f () in
    times.(i) <- now () -. t0;
    last := Some x
  done;
  (median times, Option.get !last)

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> failwith "VmHWM missing from /proc/self/status"
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" -> l
          | Some _ -> find ()
        in
        find ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Collect garbage left by set-up (dropped simulators release their
   domain pools through finalisers) and empty the minor heap, so that an
   allocation count taken next depends only on the work that follows. *)
let settle_gc () =
  Gc.full_major ();
  Gc.full_major ()

type gc_mark = { minor : float; major : float; minor_gcs : int; major_gcs : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = Gc.minor_words ();
    major = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Relative-1e-9 conservation check: offered = delivered + dropped. *)
let conserved ~offered ~delivered ~dropped =
  Float.abs (offered -. (delivered +. dropped))
  <= 1e-9 *. Float.max 1. (Float.abs offered)

(* {1 Host-speed reference}

   The measuring host's speed drifts by tens of percent over minutes (other
   tenants share its cores and memory), which would swamp the differences
   the benchmark exists to show.  Every timed loop therefore interleaves a
   fixed reference kernel, written here and independent of the program,
   and reports its times scaled by [nominal / measured kernel time]: the
   times the run would have shown with the kernel at its nominal speed.
   Raw times go into the notes and the run record.  Each workload names
   the kernel whose bottleneck matches its own: cache-resident integer
   work, or random reads over a 64 MiB table. *)

type kernel = Compute | Memory

let kernel_name = function Compute -> "compute" | Memory -> "memory"

(* Round figures near the kernels' median times on the development
   host; only ratios between runs matter. *)
let nominal_s = function Compute -> 1.0e-3 | Memory -> 4.0e-3

(* A kernel runs once per this many nominal kernel times of timed work:
   about 4 % of the loop. *)
let kernel_period = 25.

let compute_table = lazy (Array.make (1 lsl 15) 0)

let memory_table = lazy (Array.make (1 lsl 23) 1)

let kernel_table = function
  | Compute -> Lazy.force compute_table
  | Memory -> Lazy.force memory_table

(* A helper domain's table: the compute kernel writes to its own. *)
let helper_table = function
  | Compute -> Array.make (1 lsl 15) 0
  | Memory -> Lazy.force memory_table

let run_kernel kernel a =
  let x = ref 12345 and s = ref 0 in
  (match kernel with
  | Compute ->
    for _ = 1 to 400_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let i = !x land ((1 lsl 15) - 1) in
      s := !s + a.(i);
      a.(i) <- !s land 0xFFFF
    done
  | Memory ->
    for _ = 1 to 200_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      s := !s + a.(!x land ((1 lsl 23) - 1))
    done);
  ignore (Sys.opaque_identity !s)

let time_kernels kernel a k =
  Array.init k (fun _ ->
      let t0 = now () in
      run_kernel kernel a;
      now () -. t0)

(* [k] kernel runs on each of [domains] domains at once.  A workload
   spread over several domains runs at their combined speed, so each run
   reports the harmonic mean of the domains' times: a contended second
   core shows up even though the loop itself runs on the first. *)
let kernel_batch ~domains kernel k =
  let helpers =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (fun () -> time_kernels kernel (helper_table kernel) k))
  in
  let times = time_kernels kernel (kernel_table kernel) k :: List.map Domain.join helpers in
  Array.init k (fun i ->
      let rate = List.fold_left (fun r t -> r +. (1. /. t.(i))) 0. times in
      float_of_int domains /. rate)

type timing = {
  per_period : float array;  (** raw host seconds per period, one per sample *)
  scaled : float array;  (** the same, at the reference speed *)
  periods : int;
  busy : float;  (** raw host seconds spent in samples *)
  busy_scaled : float;
  scale : float;  (** nominal / kernel median over the whole run *)
  kernel_median : float;
}

(* Host speed moves within a run too, so each sample is scaled by the
   kernel runs within this many seconds of its end. *)
let local_window_s = 1.0

(* Run [sample] — one timed unit of [periods] routing periods — until
   [seconds] have passed, with the reference kernel interleaved on as
   many [domains] as the workload uses. *)
let timed_loop ?(domains = 1) ~seconds ~kernel ~periods sample =
  let per_period = Samples.create () and ends = Samples.create () in
  let kernel_times = Samples.create () and kernel_at = Samples.create () in
  let busy = ref 0. and since = ref 0. and n = ref 0 in
  let every = kernel_period *. nominal_s kernel in
  ignore (kernel_table kernel);
  let t_end = now () +. seconds in
  while now () < t_end || Samples.length kernel_times = 0 do
    let t0 = now () in
    sample ();
    let t1 = now () in
    let dt = t1 -. t0 in
    Samples.push per_period (dt /. float_of_int periods);
    Samples.push ends t1;
    busy := !busy +. dt;
    n := !n + periods;
    since := !since +. dt;
    let due = int_of_float (!since /. every) in
    if due > 0 || Samples.length kernel_times = 0 then begin
      since := !since -. (float_of_int due *. every);
      let batch = kernel_batch ~domains kernel (max 1 due) in
      let at = now () in
      Array.iter
        (fun t ->
          Samples.push kernel_times t;
          Samples.push kernel_at at)
        batch
    end
  done;
  let kernel_times = Samples.to_array kernel_times in
  let kernel_at = Samples.to_array kernel_at in
  let kernel_median = median kernel_times in
  let local_scale t =
    let near = ref [] in
    Array.iteri
      (fun i at ->
        if Float.abs (at -. t) <= local_window_s then near := kernel_times.(i) :: !near)
      kernel_at;
    let k = if !near = [] then kernel_median else median (Array.of_list !near) in
    nominal_s kernel /. k
  in
  let per_period = Samples.to_array per_period in
  let ends = Samples.to_array ends in
  let scaled = Array.mapi (fun i x -> x *. local_scale ends.(i)) per_period in
  { per_period;
    scaled;
    periods = !n;
    busy = !busy;
    busy_scaled = float_of_int periods *. sum scaled;
    scale = nominal_s kernel /. kernel_median;
    kernel_median }

(* {1 Provenance} *)

type provenance = {
  rev : string;
  date : string;
  nproc : int;
  recommended_domains : int;
  ocaml : string;
  workload : string;
  domains : int;
  seed : int;
  trace : bool;
}

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let provenance_json p =
  Json.Obj
    [ ("rev", Json.String p.rev);
      ("date", Json.String p.date);
      ("nproc", Json.Int p.nproc);
      ("recommended_domain_count", Json.Int p.recommended_domains);
      ("ocaml_version", Json.String p.ocaml);
      ("workload", Json.String p.workload);
      ("domains", Json.Int p.domains);
      ("seed", Json.Int p.seed);
      ("trace", Json.Bool p.trace) ]

(* {1 Results} *)

type metric = { name : string; value : float; unit_ : string }

(* What one run reports: the metrics for its mode, how many checked
   units were attempted and failed, the output digest, and free-form
   notes for the human-readable report. *)
type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  digest : string;
  notes : (string * string) list;
}

let metric name value unit_ = { name; value; unit_ }

(* The end-to-end metrics of a run, times scaled to the reference speed.
   The period quantiles come from [quantiles] when given, else from
   [timing]; [rss_mb] is read before the timed loop, whose length varies
   with host speed. *)
let end_to_end ?quantiles ~setup_s ~timing ~minor ~major ~rss_mb () =
  let t = timing in
  let q = Option.value quantiles ~default:t in
  let ms = Array.map (fun s -> 1000. *. s) q.scaled in
  [ metric "setup_s" (setup_s *. t.scale) "s";
    metric "periods_per_s" (float_of_int t.periods /. t.busy_scaled) "1/s";
    metric "period_ms_p50" (quantile ms 0.5) "ms";
    metric "period_ms_p90" (quantile ms 0.9) "ms";
    metric "minor_words_per_period" minor "words";
    metric "major_words_per_period" major "words";
    metric "peak_rss_mb" rss_mb "MiB" ]

let timing_notes ~kernel ~setup_s t =
  let raw = Array.map (fun s -> 1000. *. s) t.per_period in
  [ ("periods timed", Printf.sprintf "%d in %d samples" t.periods (Array.length raw));
    ( "reference kernel",
      Printf.sprintf "%s, median %.4f ms (nominal %.4f ms), scale %.4f"
        (kernel_name kernel) (1000. *. t.kernel_median)
        (1000. *. nominal_s kernel) t.scale );
    ( "raw host time",
      Printf.sprintf "setup %.4f s, %.4f periods/s, p50 %.4f ms, p90 %.4f ms"
        setup_s
        (float_of_int t.periods /. t.busy)
        (quantile raw 0.5) (quantile raw 0.9) ) ]
