(** The bundle a simulator carries: one registry, one event sink, one
    flight recorder, and (once the simulator declares its link count) one
    oscillation detector.

    Simulators accept [?telemetry] and do nothing when it is absent — the
    disabled path is a single [match] per hook.  The CLI builds one bundle
    per run from [--trace-out] / [--metrics-out] / [--profile] and reads
    everything back out at end of run. *)

type t

val create :
  ?sink:Sink.t ->
  ?tracer:Tracer.t ->
  ?gc:bool ->
  ?osc_window_s:float ->
  ?osc_max_flips:int ->
  unit ->
  t
(** [sink] defaults to {!Sink.null}; [tracer] to {!Tracer.null} (pass a
    live one to flight-record the run — with a {!Tracer.Wall} clock it is
    also the run's wall-time profile, see {!Trace_export.profile}).
    [gc] turns on {!Gc_account} sections around routing periods and major
    phases (default off: GC counters are compiler-version-dependent, so
    deterministic-artifact tests keep them out).  The oscillation
    parameters are stored for {!init_oscillation}. *)

val metrics : t -> Metrics.t

val sink : t -> Sink.t

val tracer : t -> Tracer.t

val gc_enabled : t -> bool

val init_oscillation : t -> links:int -> Oscillation.t
(** Create (or return the already-created) detector sized to the
    simulator's link count, with the window/threshold given at
    {!create}. *)

val oscillation : t -> Oscillation.t option

val oscillation_flag : t -> link:int -> time:float -> flips:int -> unit
(** [oscillation_flag t] registers the [oscillation_flags] counter and
    returns the [on_flag] hook for {!Oscillation.observe}: each flag bumps
    the counter and emits [{"t","ev":"oscillation","link","flips"}]
    through the sink. *)

val snapshot_json : t -> Json.t
(** Metrics snapshot with the oscillation summary and the sink's event
    count appended — what [--metrics-out] writes. *)

val write_metrics : t -> string -> unit

val close : t -> unit
(** Close the sink (flush the trace file). *)
