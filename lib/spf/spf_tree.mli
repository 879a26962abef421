open! Import

(** Shortest-path trees produced by {!Dijkstra}.

    A tree is rooted at the computing PSN.  Because shortest paths are
    hereditary (every subpath of a shortest path is a shortest path — §4.1),
    the tree simultaneously encodes the full path, the next hop and the
    distance for every destination.

    A tree is not necessarily frozen: {!Spf_engine} keeps its trees live,
    updating them in place on every refresh ({!Spf_repair} patches the
    disturbed region, [Dijkstra.compute_into] overwrites the whole tree),
    so every holder of a tree sees the latest values. *)

type t

val hop_scale : int
(** A tree stores each node's distance as one composite int,
    [units * hop_scale + hops] ([max_int] when unreached): the quantity
    [Dijkstra] compares, so that equal-cost paths tie-break toward fewer
    hops.  Paths stay below [hop_scale] hops. *)

val composite_units : int -> int
(** The routing units of a composite distance or link weight ([max_int]
    maps to [max_int]): [composite_units (Dijkstra.cost_weight c)] is
    [c]. *)

val make : graph:Graph.t -> root:Node.t -> t
(** A tree rooted at the node in which every node is unreached, ready
    for [Dijkstra.compute_into] to fill. *)

val graph : t -> Graph.t

val root : t -> Node.t

val reached : t -> Node.t -> bool

val dist : t -> Node.t -> int
(** Total path cost in routing units.  [max_int] when unreachable. *)

val hops : t -> Node.t -> int
(** Path length in links.  [max_int] when unreachable. *)

val parent_link : t -> Node.t -> Link.t option

(** {2 Raw accessors} — int-indexed views for hot loops (load assignment
    walks every reached node of every source's tree each period); no
    option or [Node.t] boxing. *)

val reached_i : t -> int -> bool
(** [reached_i t i = reached t (Node.of_int i)]. *)

val hops_i : t -> int -> int
(** [hops_i t i = hops t (Node.of_int i)]. *)

val comp_i : t -> int -> int
(** The composite distance of node [i] ([max_int] when unreached). *)

val parent_id : t -> int -> int
(** The link id over which the path enters node [i], or [-1] for the root
    and unreachable nodes. *)

val unsafe_comp : t -> int array
(** The tree's own composite-distance column, exposed (with
    {!unsafe_parent}) so {!Spf_repair} and [Dijkstra.compute_into] can
    update it in place.  Mutating it silently changes what every holder
    of the tree sees; only those two, which restore the
    [Dijkstra.compute] invariant before returning, may write. *)

val unsafe_parent : t -> int array
(** The tree's own parent column: arriving link ids, [-1] for none. *)

val path : t -> Node.t -> Link.t list
(** Links from the root to the destination, in forwarding order; [[]] for
    the root itself.  @raise Invalid_argument if unreachable. *)

val next_hop : t -> Node.t -> Link.t option
(** First link on the path — what the forwarding table stores.  [None] for
    the root and unreachable destinations. *)

val uses_link : t -> Node.t -> Link.id -> bool
(** Does the path to the destination traverse the link? *)

val destinations_via : t -> Link.id -> Node.t list
(** All destinations whose tree path traverses the link. *)

val fold_reached : t -> init:'a -> f:('a -> Node.t -> 'a) -> 'a
(** Fold over every reached node except the root. *)

val equal : t -> t -> bool
(** Structural equality: same root, same distances, hop counts {e and}
    parent links for every node.  The determinism tests use this to assert
    parallel and sequential computations agree bit-for-bit. *)
