open! Import

(** One routing period's update generation, shared by every simulator.

    The update half of the control loop (§2.2): each link's measured
    delay for the period goes through the metric and the significance
    test ({!Metric.period_update_all}), the links whose change must be
    flooded are grouped by the PSN that owns them, and each such PSN
    originates one update carrying its changed links.  A [t] owns the
    metric, one {!Flooder.t} per node and the per-period scratch, so the
    flow, packet and multipath simulators run the same code. *)

type t

val create : Metric.t -> t
(** Flooders for every node of the metric's graph, none having
    originated anything yet. *)

val metric : t -> Metric.t

val period :
  t -> up:bool array -> link_delay_s:float array -> Update.t list
(** Run one routing period: link [i] is fed [link_delay_s.(i)] when
    [up.(i)] and skipped otherwise.  Returns one freshly originated
    update per PSN with a flooded change, in ascending node order; each
    update lists its links in descending link-id order.  A quiet period
    returns [[]] without allocating or scanning any origin. *)

val flood : t -> Update.t -> Broadcast.outcome
(** Instant-flooding accounting: run the update through every node's
    flooder ({!Broadcast.flood}). *)

val flooder : t -> Node.t -> Flooder.t
(** The node's flooder, for simulators that carry updates hop by hop. *)
