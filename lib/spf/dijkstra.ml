open! Import

let max_link_cost = 254

(* Composite edge weights encode lexicographic comparison of
   (path cost, hop count) in a single positive integer, keeping plain
   Dijkstra applicable:

     w(l) = cost(l) * hop_scale + 1

   The +1 per edge makes hop count the tie-break among equal-cost paths:
   with paths < 256 hops the hop count never carries into the cost, so
   comparing composites compares (cost, hops) lexicographically.  Trees
   store composite distances as they are ([Spf_tree.hop_scale]). *)
let hop_scale = Spf_tree.hop_scale

(* Out of line: the message allocates, and [cost_weight] runs on the
   A0xx-gated per-update path. *)
let[@inline never] bad_cost c =
  invalid_arg
    (Printf.sprintf "Dijkstra: link cost %d outside [1, %d]" c max_link_cost)

let cost_weight c =
  if c < 1 || c > max_link_cost then bad_cost c;
  (c * hop_scale) + 1

(* Memoized per-link composite weights: one cost_fn call + range check per
   link per refresh, instead of per edge per source.  Disabled links carry
   the sentinel -1 and are never entered. *)
(* Fill a caller-owned table in place.  A plain for-loop rather than
   [Graph.iter_links]: this runs every routing period on the simulator's
   steady path, which must not allocate (an [iter_links] closure would). *)
let compute_weights_into ?(enabled = fun _ -> true) g ~cost weights =
  for i = 0 to Graph.link_count g - 1 do
    let lid = Link.id_of_int i in
    weights.(i) <- (if enabled lid then cost_weight (cost lid) else -1)
  done

let compute_weights ?enabled g ~cost =
  let weights = Array.make (Graph.link_count g) (-1) in
  compute_weights_into ?enabled g ~cost weights;
  weights

(* The inner loop's only work array is the node heap: distances and
   parents are computed straight into the tree's own columns.  A scratch
   belongs to one domain; the pool fan-out gives each participant its
   own. *)
type scratch = { heap : Node_heap.t }

let scratch () = { heap = Node_heap.create () }

let[@inline never] wrong_tree () =
  invalid_arg "Dijkstra.compute_into: tree is not sized for this graph"

(* The SPF inner loop over the flat (CSR) adjacency and a memoized weight
   table, run on the tree's own columns.  The tree is a pure function of
   the weight table, whatever order the heap pops equal keys in: every
   composite edge weight is at least [hop_scale + 1], so each tight
   predecessor of a node (one whose distance plus the link's weight equals
   the node's) pops strictly before the node, and relaxing it keeps the
   lowest-id tight in-link as the parent.  A popped node's neighbours that
   already popped cannot improve or tie (their distance is at most the
   popped one's), so no settled flags are needed. *)
let compute_into s g ~weights tree =
  let n = Graph.node_count g in
  let comp = Spf_tree.unsafe_comp tree in
  let parent = Spf_tree.unsafe_parent tree in
  if Array.length comp <> n then wrong_tree ();
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let heap = s.heap in
  Node_heap.reset heap n;
  for i = 0 to n - 1 do
    comp.(i) <- max_int;
    parent.(i) <- -1
  done;
  let ri = Node.to_int (Spf_tree.root tree) in
  comp.(ri) <- 0;
  Node_heap.push heap ri ~key:0;
  while not (Node_heap.is_empty heap) do
    let i = Node_heap.pop_min heap in
    let w = comp.(i) in
    for k = out_off.(i) to out_off.(i + 1) - 1 do
      let lid = out_link_ids.(k) in
      let ew = weights.(lid) in
      if ew >= 0 then begin
        let j = out_dst.(k) in
        let w' = w + ew in
        let wj = comp.(j) in
        if w' < wj then begin
          comp.(j) <- w';
          parent.(j) <- lid;
          Node_heap.push heap j ~key:w'
        end
        else if w' = wj && lid < parent.(j) then parent.(j) <- lid
      end
    done
  done
[@@hot_path]

let compute_flat_s s g ~weights root =
  let tree = Spf_tree.make ~graph:g ~root in
  compute_into s g ~weights tree;
  tree

let compute_flat g ~weights root = compute_flat_s (scratch ()) g ~weights root

let compute ?enabled g ~cost root =
  compute_flat g ~weights:(compute_weights ?enabled g ~cost) root

(* Chunk per-source fan-outs so domains claim several sources per visit to
   the pool's atomic counter: one task per source made small graphs spend
   comparable time on handout as on Dijkstra itself (the mesh200
   regression in BENCH_spf.json). *)
let source_chunk ~sources ~domains = max 1 (sources / (domains * 8))

let all_pairs ?enabled ?pool g ~cost =
  let weights = compute_weights ?enabled g ~cost in
  let n = Graph.node_count g in
  let trees = Array.make n None in
  let one s i = trees.(i) <- Some (compute_flat_s s g ~weights (Node.of_int i)) in
  (match pool with
  | None ->
    let s = scratch () in
    for i = 0 to n - 1 do
      one s i
    done
  | Some pool ->
    let chunk = source_chunk ~sources:n ~domains:(Domain_pool.size pool) in
    Domain_pool.parallel_for_with ~chunk pool ~init:scratch n one);
  Array.map Option.get trees

let min_hop_tree ?enabled g root = compute ?enabled g ~cost:(fun _ -> 1) root
