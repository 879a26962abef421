open! Import

(** SPF route computation (Dijkstra 1959), as installed in the ARPANET in
    May 1979.

    Link costs are supplied as a function of {!Link.id} in routing units
    (positive integers).  The SPF algorithm is shared by every metric —
    D-SPF, HN-SPF and min-hop differ only in the costs they feed in (§2.2).

    {b Tie-breaking.}  Equal-cost paths are broken toward fewer hops; among
    the links arriving at a node on a shortest path, the lowest link id
    is its parent.  The tree is therefore a pure function of the costs,
    independent of the order the queue settles nodes in.

    {b Hot path.}  Internally every computation runs over the graph's flat
    (CSR) adjacency and a per-link table of memoized composite edge weights
    ({!compute_weights} / {!compute_flat}), so the inner loop touches only
    int arrays.  {!compute} is the convenience wrapper; callers computing
    many trees against the same costs — {!all_pairs}, {!Spf_engine} — build
    the weight table once and share it. *)

val max_link_cost : int
(** Largest admissible per-link cost (254 routing units — the delay metric's
    8-bit field, §3.2's 127:1 range anchor). *)

val compute :
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  Node.t ->
  Spf_tree.t
(** [compute g ~cost root] builds the shortest-path tree from [root].
    Links for which [enabled] is false (default: none) are treated as down
    and never entered — how SPF "dynamically rout[es] around down lines"
    (§7).
    @raise Invalid_argument if any enabled link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_weights :
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array
(** The composite edge-weight table, indexed by link id: each enabled
    link's {!cost_weight} (its cost scaled, plus the per-hop +1);
    disabled links carry the sentinel [-1].  Equal tables (under [(=)])
    guarantee identical trees from {!compute_flat}.
    @raise Invalid_argument if any enabled link's cost is outside
    [\[1, max_link_cost\]]. *)

val compute_weights_into :
  ?enabled:(Link.id -> bool) ->
  Graph.t ->
  cost:(Link.id -> int) ->
  int array ->
  unit
(** {!compute_weights} into a caller-owned array of length
    [Graph.link_count] — allocation-free, for tables refreshed every
    routing period. *)

val cost_weight : int -> int
(** The composite weight {!compute_weights} stores for one enabled link of
    the given cost.  A one-link path's
    composite distance is its weight.  Allocation-free.
    @raise Invalid_argument if the cost is outside
    [\[1, max_link_cost\]]. *)

val compute_flat : Graph.t -> weights:int array -> Node.t -> Spf_tree.t
(** [compute_flat g ~weights root]: the SPF inner loop proper, over a table
    from {!compute_weights}.  [compute ... root] is exactly
    [compute_flat g ~weights:(compute_weights ...) root]. *)

type scratch
(** Reusable work state for the inner loop: the {!Node_heap}, nothing
    else (distances and parents are computed straight into the tree).
    Owned by one domain at a time; resizes itself to whatever graph it is
    used on. *)

val scratch : unit -> scratch

val compute_flat_s :
  scratch -> Graph.t -> weights:int array -> Node.t -> Spf_tree.t
(** {!compute_flat} with caller-owned scratch: bit-identical trees, no
    per-call work-array allocation.  [compute_flat g] is
    [compute_flat_s (scratch ()) g]. *)

val compute_into :
  scratch -> Graph.t -> weights:int array -> Spf_tree.t -> unit
(** [compute_into s g ~weights tree] recomputes [tree] from scratch under
    [weights], rooted where it was, overwriting its composite distances
    and parent links in place: afterwards it is {!Spf_tree.equal} to
    [compute_flat_s s g ~weights (Spf_tree.root tree)], whatever it held
    before.  Dijkstra runs directly on the tree's composite-distance and
    parent columns, so this is allocation-free once the scratch's heap
    has grown to the graph.  Every holder of [tree] sees the new
    values.
    @raise Invalid_argument if [tree] is not sized for [g]. *)

val source_chunk : sources:int -> domains:int -> int
(** Chunk size for fanning [sources] single-source computations over
    [domains] domains — several sources per visit to the pool's shared
    counter, small enough to balance uneven work. *)

val all_pairs :
  ?enabled:(Link.id -> bool) ->
  ?pool:Domain_pool.t ->
  Graph.t ->
  cost:(Link.id -> int) ->
  Spf_tree.t array
(** One tree per node, indexed by node id — what the network as a whole
    computes after a flood reaches everyone.  The weight table is built
    once and shared across sources; with [pool] the per-source computations
    fan out over the pool's domains (each source writes only its own slot,
    so the result is bit-identical to the sequential run). *)

val min_hop_tree : ?enabled:(Link.id -> bool) -> Graph.t -> Node.t -> Spf_tree.t
(** SPF with every link costing one hop — the static baseline of §5.3. *)
