(** Indexed binary min-heap over node ids, with decrease-key.

    The priority queue every SPF in the repository runs on: {!Dijkstra},
    {!Spf_repair} and the multipath library's destination-rooted SPF.
    Each node id is in the heap at most once, so a shorter path found
    for a queued node lowers its key in place instead of queueing a
    second entry, and the heap never holds more than one entry per
    node.

    Entries with equal keys pop in an unspecified (but deterministic)
    order.  The SPF trees do not depend on it: every composite edge
    weight is positive, so all tight predecessors of a node pop strictly
    before it, and its parent is chosen by link id among them (see
    {!Dijkstra}).

    Once {!reset} has sized it for a graph, no operation allocates.  A
    drained heap is already clean, because every pop marks its node
    absent again: a computation that runs the heap dry leaves nothing
    behind for the next one. *)

type t

val create : unit -> t
(** An empty heap sized for no nodes: call {!reset} before use. *)

val reset : t -> int -> unit
(** [reset t n] readies [t] for node ids in [\[0, n)]: it grows the heap
    if it is smaller and drops any entries still queued (none after a
    computation that drained it).  Allocates only when it grows. *)

val is_empty : t -> bool

val push : t -> int -> key:int -> unit
(** [push t v ~key] queues [v] with [key], or lowers [v]'s key to [key]
    if [v] is queued with a larger one.  A queued [v] whose key is
    already at most [key] is left alone. *)

val pop_min : t -> int
(** Remove a node with the smallest key and return it.
    @raise Invalid_argument if the heap is empty. *)
