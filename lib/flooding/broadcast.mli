open! Import

(** Whole-network flood execution (transport-free).

    Runs one update through an array of per-node {!Flooder.t} states as a
    breadth-first wave, the way it unfolds when update processing is "a
    high priority process within the PSN" and transit times are tiny
    compared to routing periods (§3.2) — i.e. effectively instantaneous
    relative to the 10-second period.  Returns exact message accounting so
    experiments can report routing-overhead bandwidth.

    The wave walks the graph's CSR adjacency with a FIFO of the nodes that
    accepted the update, threaded through the flooders ({!Flooder.queue_join}):
    a node's out-links are delivered contiguously when it leaves the
    queue, which is exactly the order a FIFO of individual transmissions
    would deliver them in.  A flood allocates only its [outcome]. *)

type outcome = {
  reached : int;  (** nodes that accepted the update (including origin) *)
  transmissions : int;  (** update messages sent over links *)
  duplicates : int;  (** messages discarded as already-seen *)
  bits : float;  (** total wire bits spent on this flood *)
}

val flood : Graph.t -> Flooder.t array -> Update.t -> outcome
(** [flood g flooders u] injects [u] at its origin and propagates until
    quiescent.  [flooders] is indexed by node id and is mutated. *)

val flood_all :
  Graph.t -> Flooder.t array -> Update.t list -> outcome
(** Run several floods (e.g. all updates of one routing period) and sum the
    accounting. *)
