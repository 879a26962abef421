open! Import

(* The engine owns one shortest-path tree per source and keeps the set
   consistent with the latest link costs at minimal cost.  The key fact it
   leans on: {!Dijkstra.compute_flat} is a pure function of the weight
   table.  Every node's final distance is the true shortest composite
   distance and its parent is the lowest-id enabled in-link achieving it,
   independent of the order the heap settles nodes in (every composite
   edge weight is at least 257, so each achieving predecessor settles
   strictly before the node it reaches).  So the engine can diff the
   memoized weight table between refreshes and {e prove} most trees
   untouched:

   - a weight increase (or a link going down) cannot change a tree unless
     the link is that tree's parent of its destination: a non-parent link
     lies on no tree path (distances stay achieved without it) and was not
     the lowest-id candidate into its destination (candidates only shrink);

   - a weight decrease (or a link coming up) to [w'] on link [u -> v]
     cannot change a tree unless [u] is reached and
     [D(u) + w' <= D(v)] in composite distance ([<=], not [<]: equality
     makes the link a new parent candidate that may win the id tie).

   These tests compose across any set of simultaneous changes (induction on
   the decreased edges of a hypothetical shorter path, using the strict
   inequality from the decrease test), so a tree passing every per-link
   test is bit-identical to a full recompute.  Trees that fail any test
   are brought up to date by {!Spf_repair} — in-place dynamic repair that
   re-settles only the disturbed region and restores the same bit-identity
   — or, when repair is off or the tree is missing, recomputed in full,
   into the existing tree when there is one.  Both paths fan over the
   domain pool when the batch is big enough. *)

type stats = {
  mutable refreshes : int;
  mutable skipped : int;
  mutable full_sweeps : int;
  mutable sources_recomputed : int;
  mutable sources_repaired : int;
  mutable sources_reused : int;
  mutable nodes_resettled : int;
}

type t = {
  graph : Graph.t;
  pool : Domain_pool.t option;
  repair : bool;
  tracer : Tracer.t;
  tr_recompute : int; (* interned "spf_recompute" *)
  tr_repair : int; (* interned "spf_repair" *)
  mutable weights : int array; (* [||] before the first refresh *)
  mutable weights_scratch : int array;
      (* the previous table, recycled: each refresh fills it in place,
         diffs, and swaps — steady periods never allocate a table *)
  trees : Spf_tree.t option array;
  scratch : Dijkstra.scratch; (* caller-domain work arrays, reused forever *)
  repair_scratch : Spf_repair.scratch;
  (* The last refresh's weight changes as int columns, first [nch] live:
     link id, old and new composite weight. *)
  ch_link : int array;
  ch_old : int array;
  ch_new : int array;
  mutable nch : int;
  (* Source worklists, filled in ascending order: sources to recompute
     (first [ntodo]) and trees to repair (first [nrepair]). *)
  todo : int array;
  mutable ntodo : int;
  to_repair : int array;
  mutable nrepair : int;
  stats : stats;
}

(* A refresh that changes more than this fraction of the links
   recomputes every wanted source outright instead of proving and
   repairing tree by tree. *)
let full_sweep_fraction = 0.25

(* Affected-tree count at or above which repairs fan out over the pool:
   repairs are usually so cheap that the fan-out only pays off for large
   batches. *)
let repair_grain = 256

let create ?pool ?(tracer = Tracer.null) ?(repair = true) graph =
  let n = Graph.node_count graph and nl = Graph.link_count graph in
  { graph;
    pool;
    repair;
    tracer;
    tr_recompute = Tracer.intern tracer "spf_recompute";
    tr_repair = Tracer.intern tracer "spf_repair";
    weights = [||];
    weights_scratch = [||];
    trees = Array.make n None;
    scratch = Dijkstra.scratch ();
    repair_scratch = Spf_repair.scratch ();
    ch_link = Array.make nl 0;
    ch_old = Array.make nl 0;
    ch_new = Array.make nl 0;
    nch = 0;
    todo = Array.make n 0;
    ntodo = 0;
    to_repair = Array.make n 0;
    nrepair = 0;
    stats =
      { refreshes = 0;
        skipped = 0;
        full_sweeps = 0;
        sources_recomputed = 0;
        sources_repaired = 0;
        sources_reused = 0;
        nodes_resettled = 0 } }

let graph t = t.graph

let stats t = t.stats

(* Below this much total work, run the recompute inline even when a pool
   is attached.  The unit is one node-or-edge visit; a visit costs on the
   order of 100 ns (bench perf-spf: mesh200's ~840 visits/source take
   ~75 µs), while waking the pool and draining a job costs tens of µs —
   so a fan-out only pays for itself once the batch holds a couple of
   milliseconds of work.  Incremental refreshes that touch a handful of
   sources (the common per-period case) stay sequential. *)
let parallel_grain = 16_384

(* Recompute the first [ntodo] sources of the [todo] worklist.  An
   existing tree is recomputed in place; only a missing one is
   allocated. *)
let recompute t =
  let nt = t.ntodo in
  if nt > 0 then begin
    Tracer.span_begin_range t.tracer t.tr_recompute ~lo:0 ~hi:nt;
    t.stats.sources_recomputed <- t.stats.sources_recomputed + nt;
    let weights = t.weights in
    let g = t.graph in
    let todo = t.todo in
    let work = nt * (Graph.node_count g + Graph.link_count g) in
    (match t.pool with
    | Some pool when Domain_pool.size pool > 1 && work >= parallel_grain ->
      let chunk =
        Dijkstra.source_chunk ~sources:nt ~domains:(Domain_pool.size pool)
      in
      Domain_pool.parallel_for_with ~chunk ~label:t.tr_recompute pool
        ~init:Dijkstra.scratch nt (fun s k ->
          let i = todo.(k) in
          match t.trees.(i) with
          | Some tree -> Dijkstra.compute_into s g ~weights tree
          | None ->
            t.trees.(i) <-
              Some (Dijkstra.compute_flat_s s g ~weights (Node.of_int i)))
    | Some _ | None ->
      for k = 0 to nt - 1 do
        let i = todo.(k) in
        match t.trees.(i) with
        | Some tree -> Dijkstra.compute_into t.scratch g ~weights tree
        | None ->
          t.trees.(i) <-
            Some (Dijkstra.compute_flat_s t.scratch g ~weights (Node.of_int i))
      done);
    Tracer.span_end t.tracer t.tr_recompute;
    t.ntodo <- 0
  end

(* Repair one tree over the staged change columns. *)
let repair_one s t tree =
  for c = 0 to t.nch - 1 do
    Spf_repair.stage s (Link.id_of_int t.ch_link.(c)) ~old_w:t.ch_old.(c)
      ~new_w:t.ch_new.(c)
  done;
  Spf_repair.repair_staged s t.graph ~tree ~weights:t.weights

(* Repair the first [nrepair] trees of the [to_repair] worklist in place.
   Per-tree work is proportional to the disturbed region, usually a few
   nodes, so the fan-out threshold is a tree count ([repair_grain]) rather
   than a visit estimate. *)
let repair_trees t =
  let nt = t.nrepair in
  if nt > 0 then begin
    Tracer.span_begin_range t.tracer t.tr_repair ~lo:0 ~hi:nt;
    t.stats.sources_repaired <- t.stats.sources_repaired + nt;
    (match t.pool with
    | Some pool when Domain_pool.size pool > 1 && nt >= repair_grain ->
      let resettled = Array.make nt 0 in
      let chunk =
        Dijkstra.source_chunk ~sources:nt ~domains:(Domain_pool.size pool)
      in
      let to_repair = t.to_repair in
      Domain_pool.parallel_for_with ~chunk ~label:t.tr_repair pool
        ~init:Spf_repair.scratch nt (fun s k ->
          let tree = Option.get t.trees.(to_repair.(k)) in
          resettled.(k) <- repair_one s t tree);
      t.stats.nodes_resettled <-
        t.stats.nodes_resettled + Array.fold_left ( + ) 0 resettled
    | Some _ | None ->
      for k = 0 to nt - 1 do
        let tree = Option.get t.trees.(t.to_repair.(k)) in
        t.stats.nodes_resettled <-
          t.stats.nodes_resettled + repair_one t.repair_scratch t tree
      done);
    Tracer.span_end t.tracer t.tr_repair;
    t.nrepair <- 0
  end

(* Can the staged weight changes alter [tree]?  See the module comment for
   why "no" here is a proof, not a heuristic. *)
let affected t tree =
  let g = t.graph in
  let hit = ref false and c = ref 0 in
  while (not !hit) && !c < t.nch do
    let lid = t.ch_link.(!c) in
    let old_w = t.ch_old.(!c) and new_w = t.ch_new.(!c) in
    let l = Graph.link g (Link.id_of_int lid) in
    let src = Node.to_int l.Link.src and dst = Node.to_int l.Link.dst in
    let decrease = new_w >= 0 && (old_w < 0 || new_w < old_w) in
    hit :=
      if decrease then
        (* An unreached [dst] has [max_int], which every finite sum is
           below. *)
        let dsrc = Spf_tree.comp_i tree src in
        dsrc <> max_int && dsrc + new_w <= Spf_tree.comp_i tree dst
      else Spf_tree.parent_id tree dst = lid;
    incr c
  done;
  !hit

(* [?wanted] stays an option internally so the steady path never builds
   the [Node.of_int] wrapper closure the old code allocated per refresh. *)
let[@inline] wanted_at wanted i =
  match wanted with None -> true | Some f -> f (Node.of_int i)

let[@inline] push_todo t i =
  t.todo.(t.ntodo) <- i;
  t.ntodo <- t.ntodo + 1

(* Change path (floods happened): [w] is the new table, [old] the
   previous one, and their diff is staged in the change columns.  Swap
   the tables and either sweep every wanted source (dropping unwanted
   trees, which nothing would bring up to date) or fall back to the
   proof-driven repair/recompute split.  Existing trees are recomputed or
   repaired in place, so with every wanted tree present this allocates
   nothing. *)
let refresh_changed t ~wanted ~w ~old =
  t.weights <- w;
  t.weights_scratch <- old;
  let n = Graph.node_count t.graph in
  if
    float_of_int t.nch
    > full_sweep_fraction *. float_of_int (Graph.link_count t.graph)
  then begin
    t.stats.full_sweeps <- t.stats.full_sweeps + 1;
    for i = 0 to n - 1 do
      if wanted_at wanted i then push_todo t i else t.trees.(i) <- None
    done
  end
  else
    for i = 0 to n - 1 do
      match t.trees.(i) with
      | Some tree when not (affected t tree) ->
        (* Provably identical to a recompute — keep it, wanted or not. *)
        t.stats.sources_reused <- t.stats.sources_reused + 1
      | Some _ ->
        if not (wanted_at wanted i) then t.trees.(i) <- None
        else if t.repair then begin
          t.to_repair.(t.nrepair) <- i;
          t.nrepair <- t.nrepair + 1
        end
        else push_todo t i
      | None -> if wanted_at wanted i then push_todo t i
    done;
  repair_trees t;
  recompute t
[@@hot_path]

let refresh ?wanted ?enabled t ~cost =
  t.stats.refreshes <- t.stats.refreshes + 1;
  let n = Graph.node_count t.graph in
  if Array.length t.weights = 0 then begin
    (* First refresh: allocate both tables once; they live forever. *)
    t.weights <- Dijkstra.compute_weights ?enabled t.graph ~cost;
    t.weights_scratch <- Array.make (Array.length t.weights) (-1);
    t.stats.full_sweeps <- t.stats.full_sweeps + 1;
    for i = 0 to n - 1 do
      if wanted_at wanted i then push_todo t i else t.trees.(i) <- None
    done;
    recompute t
  end
  else begin
    let w = t.weights_scratch in
    let old = t.weights in
    Dijkstra.compute_weights_into ?enabled t.graph ~cost w;
    t.nch <- 0;
    for i = 0 to Array.length w - 1 do
      if w.(i) <> old.(i) then begin
        t.ch_link.(t.nch) <- i;
        t.ch_old.(t.nch) <- old.(i);
        t.ch_new.(t.nch) <- w.(i);
        t.nch <- t.nch + 1
      end
    done;
    if t.nch = 0 then begin
      (* Nothing flooded a significant update: every existing tree is
         still exact; only sources newly wanted need work.  This is the
         per-period steady path and allocates nothing (unless trees are
         missing, which only happens right after a wanted-set change). *)
      for i = 0 to n - 1 do
        match t.trees.(i) with
        | Some _ -> t.stats.sources_reused <- t.stats.sources_reused + 1
        | None -> if wanted_at wanted i then push_todo t i
      done;
      if t.ntodo = 0 then t.stats.skipped <- t.stats.skipped + 1
      else recompute t
    end
    else refresh_changed t ~wanted ~w ~old
  end

let tree t node =
  if Array.length t.weights = 0 then
    invalid_arg "Spf_engine.tree: refresh the engine first";
  let i = Node.to_int node in
  match t.trees.(i) with
  | Some tree -> tree
  | None ->
    let tree = Dijkstra.compute_flat_s t.scratch t.graph ~weights:t.weights node in
    t.trees.(i) <- Some tree;
    t.stats.sources_recomputed <- t.stats.sources_recomputed + 1;
    tree
