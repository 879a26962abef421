open! Import

(** Structured event tracing for the packet simulator.

    Typed events with one consumer: the telemetry event sink
    ({!Network.config.telemetry}), which serializes every event as one
    JSONL line through {!to_json} — the durable record of a run
    ([--trace-out]); {!of_json} reads it back.  Without a bundle the
    hooks cost one branch. *)

type event =
  | Packet_delivered of { src : Node.t; dst : Node.t; delay_s : float;
                          hops : int }
  | Packet_dropped of { at : Node.t; src : Node.t; dst : Node.t;
                        reason : drop_reason }
  | Update_flooded of { origin : Node.t; links : int }
      (** a PSN originated a routing update covering [links] of its lines *)
  | Update_accepted of { at : Node.t; origin : Node.t; latency_s : float }
  | Tables_recomputed of { at : Node.t }
  | Link_state of { link : Link.id; up : bool }

and drop_reason = Buffer_full | Line_down | Line_error | No_route | Ttl

val reason_name : drop_reason -> string

val reason_of_name : string -> drop_reason option

val all_reasons : drop_reason list

val pp_event_ids : Format.formatter -> event -> unit
(** Prints nodes by id ([n3]) — a JSONL stream carries no topology. *)

val to_json : time:float -> event -> Routing_obs.Json.t
(** One self-describing JSON object (field ["ev"] carries the event type;
    nodes and links appear as their stable integer ids). *)

val of_json : Routing_obs.Json.t -> (float * event, string) result
(** Exact inverse of {!to_json}. *)
