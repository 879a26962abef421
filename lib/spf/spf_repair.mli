open! Import

(** In-place dynamic SPF repair (Ramalingam–Reps style).

    Given a tree that was exact under the previous weight table and the
    list of per-link weight changes, {!repair} patches the tree's
    distances, hop counts and parent links so that it is {b bit-identical}
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
    + {b Re-settle}: a monotone Dijkstra loop over the {!Radix_queue}
      settles the frontier outward, patching the tree at each settle with
      the same decode as a fresh computation.  Touched nodes that never
      re-settle are exactly the ones the changes disconnected.

    A tree untouched by the changes costs nothing here — but callers
    ({!Spf_engine}) should use their cheap per-tree proof first and hand
    over only trees that may actually be affected. *)

type scratch
(** Epoch-stamped work arrays plus the monotone queue: repairs never pay
    an O(n) clear, only O(touched).  Owned by one domain at a time;
    resizes itself to whatever graph it is used on. *)

val scratch : unit -> scratch

val repair :
  scratch ->
  Graph.t ->
  tree:Spf_tree.t ->
  weights:int array ->
  changes:(Link.id * int * int) list ->
  int
(** [repair s g ~tree ~weights ~changes] patches [tree] in place and
    returns the number of nodes re-settled (0 when the changes turn out
    not to touch this tree).  [weights] is the {e new} composite table
    from [Dijkstra.compute_weights];
    [changes] lists [(link, old_weight, new_weight)] for every table
    entry that differs, with [-1] for disabled.  [tree] must have been
    exact under the old table.  Any negative weight, here and in
    [weights], means disabled. *)

(** {2 Allocation-free form}

    Callers that learn their changes one link at a time (a PSN applying a
    routing update to its own table) stage them in the scratch instead of
    building the [changes] list. *)

val stage : scratch -> Link.id -> old_w:int -> new_w:int -> unit
(** Queue one [(link, old_weight, new_weight)] change for the next
    {!repair_staged} on this scratch.  Each link at most once per
    repair. *)

val repair_staged :
  scratch -> Graph.t -> tree:Spf_tree.t -> weights:int array -> int
(** {!repair} over the staged changes, which it then discards.
    [repair s g ~tree ~weights ~changes] is [stage] of every change
    followed by [repair_staged s g ~tree ~weights]. *)
