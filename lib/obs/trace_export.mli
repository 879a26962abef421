(** Offline exporters for {!Tracer} rings.

    Chrome trace-event JSON (the ["traceEvents"] array format) loads
    directly in Perfetto or [chrome://tracing]: one process, one track
    (tid) per recorded domain, named [domain<slot>].  Under the
    {!Tracer.Untimed} clock timestamps are the per-track sequence numbers
    and the output is byte-deterministic; under wall clocks timestamps
    are microseconds.

    {!digest} summarizes a parsed Chrome trace without a browser: event
    counts per track and one row of span statistics per name (begin/end
    pairs matched per track, innermost-first).  {!profile} is the digest
    of a live tracer's export, so [arpanet_sim --profile] and
    [replay FILE.trace.json] compute their tables through the same
    pairing. *)

val chrome_json : Tracer.t -> Json.t
(** The complete trace object: [{"traceEvents": [...], ...}].  Includes
    thread-name metadata per track and per-track drop counts under
    ["otherData"]. *)

val write_chrome : Tracer.t -> string -> unit
(** Serialize {!chrome_json} to a file. *)

type span_row = {
  name : string;
  count : int;  (** closed spans *)
  total : float;  (** summed begin→end duration *)
  self : float;
      (** [total] minus the time spent in spans closed directly inside
          it on the same track *)
  p50 : float;  (** exact nearest-rank percentiles of the durations *)
  p95 : float;
  p99 : float;
  max : float;
}
(** Durations are in the trace's own time unit: microseconds under a
    wall or custom clock, sequence steps under {!Tracer.Untimed}. *)

type digest = {
  tracks : (int * int) list;  (** (tid, event count), sorted by tid *)
  spans : span_row list;  (** sorted by name *)
  total_events : int;  (** events across all tracks, metadata excluded *)
  dropped : int;  (** drop count recorded at export time, if present *)
  timed : bool;  (** timestamps are microseconds, not sequence numbers *)
}

val digest : Json.t -> (digest, string) result
(** Digest a parsed Chrome trace.  Fails when ["traceEvents"] is missing
    or not a list; unknown phases are counted but otherwise ignored;
    unmatched begins/ends are tolerated. *)

val profile : Tracer.t -> digest
(** [digest (chrome_json t)]: the span table of a live recording. *)

val pp_profile : Format.formatter -> digest -> unit
(** The span table, by descending total: count, total, self, mean,
    p50/p95/p99 and max, then the recorder's dropped-event count (a
    wrapped ring makes the table short, and says so). *)

val pp_digest : Format.formatter -> digest -> unit
(** Event and per-track counts, then {!pp_profile}. *)
