open! Import

(** In-place dynamic SPF repair (Ramalingam–Reps style).

    Given a tree that was exact under the previous weight table and the
    per-link weight changes, {!repair_staged} patches the tree's
    composite distances and parent links so that it is {b bit-identical}
    to [Dijkstra.compute_flat] from scratch under the new table — in time
    proportional to the part of the tree that actually changes, not the
    graph.

    The repair leans on the same fact as {!Spf_engine}'s reuse proof:
    the from-scratch tree is a pure function of the weight table — every
    node's distance is the true shortest composite distance, and its
    parent is the lowest-id enabled in-link achieving it.  The repair
    re-establishes exactly that local characterization on the region it
    disturbs:

    + {b Invalidate}: a weight increase (or disable) can only lengthen
      routes through the link, so only the subtree hanging below it is
      suspect; that subtree is flooded and marked invalid.
    + {b Seed}: every invalid node is offered its best candidate over
      in-links from intact nodes (whose distances are still exact or
      over-approximations that later relaxations fix); every decreased
      link whose source is intact offers its destination a shortcut, and
      an exact tie with a lower link id patches the parent pointer alone
      (distances downstream are untouched by a parent swap).
    + {b Re-settle}: a monotone Dijkstra loop over the {!Node_heap}
      settles the frontier outward, writing candidates straight into the
      tree's columns as a fresh computation does.  Invalidated nodes that
      are never re-offered a path are exactly the ones the changes
      disconnected; they keep the unreached entries written when they
      were invalidated.

    A tree untouched by the changes costs nothing here — but callers
    ({!Spf_engine}) should use their cheap per-tree proof first and hand
    over only trees that may actually be affected. *)

type scratch
(** Epoch-stamped work arrays plus the node heap: repairs never pay an
    O(n) clear, only O(touched).  Owned by one domain at a time;
    resizes itself to whatever graph it is used on. *)

val scratch : unit -> scratch

val stage : scratch -> Link.id -> old_w:int -> new_w:int -> unit
(** Queue one [(link, old_weight, new_weight)] change for the next
    {!repair_staged} on this scratch: every table entry that differs,
    with any negative weight meaning disabled.  Staging a link again
    before the repair folds into its pending change, which then runs from
    the first [old_w] to the latest [new_w].  Changes are staged in int
    columns, so callers learning them one link at a time (a PSN applying
    a routing update, the engine diffing its weight table) build no
    list. *)

val repair_staged :
  scratch -> Graph.t -> tree:Spf_tree.t -> weights:int array -> int
(** [repair_staged s g ~tree ~weights] patches [tree] in place over the
    staged changes, which it then discards, and returns the number of
    nodes re-settled (0 when the changes turn out not to touch this
    tree).  [weights] is the {e new} composite table from
    [Dijkstra.compute_weights] (negative means disabled); [tree] must
    have been exact under the old table. *)
