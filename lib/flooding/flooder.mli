open! Import

(** Per-PSN flooding state for the updating protocol (Rosen 1980).

    Each PSN remembers, per origin, the newest sequence number it has
    accepted (one unboxed int per origin).  {!accept} is the one decision
    function: it classifies an incoming update and does the bookkeeping.
    {!receive} adds the links to forward a fresh update on (all outgoing
    links except the one it arrived over).  {!originate} stamps a PSN's
    own update.

    The transport below (retransmission until acknowledged on each line) is
    the simulator's job; this module is the protocol's decision logic, and
    with it a simulator can account exactly for how many update
    transmissions a single cost change costs the network. *)

type t

val create : Graph.t -> owner:Node.t -> t

val owner : t -> Node.t

val originate : t -> costs:(Link.id * int) list -> Update.t
(** Build this PSN's next update (advancing its own sequence number) and
    record it as seen. *)

val accept : t -> local:bool -> Update.t -> bool
(** [accept t ~local u] is [true] when [u] is fresh here: injected
    locally ([local], always fresh) or newer than anything seen from its
    origin.  A fresh update is recorded as the newest from its origin and
    counted in {!accepted_count}; a stale one in {!duplicate_count}.
    Allocation-free. *)

type verdict =
  | Fresh of Link.id list
      (** first sighting: accept the costs, forward on these links *)
  | Duplicate  (** already seen (same or older sequence): discard *)

val receive : t -> arrived_on:Link.id option -> Update.t -> verdict
(** {!accept} plus the forward list.  [arrived_on = None] models an
    update injected locally (used when a simulator applies an origination
    to its own node); a local injection is always [Fresh] and forwards on
    every outgoing link. *)

val accepted_count : t -> int

val duplicate_count : t -> int

val last_seq : t -> Node.t -> Sequence.t option
(** Newest sequence accepted from an origin, if any. *)

(** {2 Broadcast's node queue}

    {!Broadcast.flood} runs its wave as a FIFO of the nodes that accepted
    the update, threaded through the flooders themselves: each flooder
    holds the next node id in the queue and the link it accepted the
    update over.  That is O(1) state per node and no allocation per
    transmission; a node accepts an update at most once per flood, so it
    is in the queue at most once. *)

val at : t array -> int -> t
(** [at flooders i] is [flooders.(i)], compiled as a plain load: where [t]
    is abstract an ordinary array read takes the generic path with a
    float-boxing branch, which the allocation-free wave cannot have. *)

val queue_join : t -> arrived:int -> unit
(** Make this flooder the queue's tail, having accepted over link
    [arrived] ([-1] at the origin). *)

val queue_link : t -> next:int -> unit
(** Point this (tail) flooder at the node id queued after it. *)

val queue_next : t -> int
(** The node id queued after this one, [-1] at the tail. *)

val queue_arrived : t -> int
(** The link id this node accepted the update over, [-1] at the origin. *)
