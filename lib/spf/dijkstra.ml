open! Import

let max_link_cost = 254

(* Composite edge weights encode lexicographic comparison of
   (path cost, hop count) in a single positive integer, keeping plain
   Dijkstra applicable:

     w(l) = cost(l) * hop_scale + 1

   The +1 per edge makes hop count the tie-break among equal-cost paths:
   with paths < 256 hops the hop count never carries into the cost, so
   comparing composites compares (cost, hops) lexicographically. *)
let hop_scale = 256

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

let composite ~dist ~hops =
  if dist = max_int then max_int else (dist * hop_scale) + hops

(* Inverse of [composite]: the hop count lives in the low byte and the
   unit distance above it.  Two int-returning halves rather than a
   pair: results cross module boundaries unboxed, so the repair resettle
   loop can re-decode patched distances without allocating. *)
let composite_units comp =
  if comp = max_int then max_int else comp / hop_scale

let composite_hops comp = if comp = max_int then max_int else comp mod hop_scale

(* Reusable work arrays for the inner loop.  The settled flags, composite
   distances, parent link ids and the heap never escape a computation, so
   one scratch can serve every tree a domain computes.  What escapes is
   the decoded result, written into a caller's [Spf_tree.t]: in place by
   [compute_into], into fresh arrays by [compute_flat_s].  Parent links
   are stored as [Some id] values drawn from a per-scratch cache, so a
   recompute boxes nothing.  A scratch belongs to one domain; the pool
   fan-out gives each participant its own. *)
type scratch = {
  mutable dist : int array; (* composite distances *)
  mutable settled : bool array;
  mutable parent : int array; (* arriving link id, -1 for none *)
  mutable some_link : Link.id option array; (* some_link.(i) = Some (id i) *)
  heap : Radix_queue.t;
  slot : Radix_queue.slot; (* out-cell for allocation-free pops *)
}

let scratch () =
  { dist = [||];
    settled = [||];
    parent = [||];
    some_link = [||];
    heap = Radix_queue.create ();
    slot = Radix_queue.slot () }

(* Out of line: the resize path allocates, and [compute_into] is
   A0xx-gated. *)
let[@inline never] ready s n nl =
  if Array.length s.dist < n then begin
    s.dist <- Array.make n max_int;
    s.settled <- Array.make n false;
    s.parent <- Array.make n (-1)
  end
  else begin
    Array.fill s.dist 0 n max_int;
    Array.fill s.settled 0 n false;
    Array.fill s.parent 0 n (-1)
  end;
  if Array.length s.some_link < nl then
    s.some_link <- Array.init nl (fun i -> Some (Link.id_of_int i));
  Radix_queue.clear s.heap

let[@inline never] wrong_tree () =
  invalid_arg "Dijkstra.compute_into: tree is not sized for this graph"

(* The SPF inner loop over the flat (CSR) adjacency and a memoized weight
   table.  Tie-breaking is identical to the historical list-based version:
   queue priorities are (composite weight, arriving link id) pairs — globally
   unique — and on a fully tied relaxation the lower arriving link id wins,
   so the tree is a pure function of the weight table.  Dijkstra never
   pushes a key below the last popped one (edge weights are positive), the
   exact precondition of the monotone radix queue. *)
let compute_into s g ~weights tree =
  let n = Graph.node_count g in
  let units = Spf_tree.unsafe_dist tree in
  let hops = Spf_tree.unsafe_hops tree in
  let tparent = Spf_tree.unsafe_parent tree in
  if Array.length units <> n then wrong_tree ();
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  ready s n (Graph.link_count g);
  let dist = s.dist in
  let parent = s.parent in
  let settled = s.settled in
  let heap = s.heap in
  let ri = Node.to_int (Spf_tree.root tree) in
  dist.(ri) <- 0;
  Radix_queue.push heap ~key:0 ~tie:(-1) ri;
  let slot = s.slot in
  while Radix_queue.pop_min_into heap slot do
    let w = slot.Radix_queue.key and i = slot.Radix_queue.value in
    if not settled.(i) then begin
      settled.(i) <- true;
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let lid = out_link_ids.(k) in
        let ew = weights.(lid) in
        let j = out_dst.(k) in
        if ew >= 0 && not settled.(j) then begin
          let w' = w + ew in
          if w' < dist.(j) then begin
            dist.(j) <- w';
            parent.(j) <- lid;
            Radix_queue.push heap ~key:w' ~tie:lid j
          end
          else if w' = dist.(j) && lid < parent.(j) then begin
            (* Fully tied: keep the lower arriving link id so the tree
               is independent of queue internals. *)
            parent.(j) <- lid;
            Radix_queue.push heap ~key:w' ~tie:lid j
          end
        end
      done
    end
  done;
  (* Decode composite weights back into routing units and hop counts,
     overwriting every entry: unreached nodes go back to [max_int]/[None]. *)
  for i = 0 to n - 1 do
    let d = dist.(i) in
    units.(i) <- composite_units d;
    hops.(i) <- composite_hops d;
    tparent.(i) <- (if parent.(i) < 0 then None else s.some_link.(parent.(i)))
  done
[@@hot_path]

let compute_flat_s s g ~weights root =
  let n = Graph.node_count g in
  let tree =
    Spf_tree.make ~graph:g ~root ~parent:(Array.make n None)
      ~dist:(Array.make n max_int) ~hops:(Array.make n max_int)
  in
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
