open! Import

(** The [spf_engine] gauges a simulator publishes in its telemetry
    registry: one per {!Spf_engine.stats} counter, labelled
    [counter=<name>]. *)

type t

val create : Obs_metrics.t -> t

val set : t -> Spf_engine.stats -> unit
(** Copy the engine's live counters into the gauges. *)
