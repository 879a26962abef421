open! Import

(* See the .mli for the algorithm outline and the bit-identity argument.

   Node states during one repair, tracked by epoch stamps so consecutive
   repairs share arrays without clearing them:

   - untouched: the tree entry is still exact (or provably an
     over-approximation that no surviving path undercuts); its composite
     distance is re-encoded from the tree on demand.
   - touched, not settled: [newdist]/[newparent] hold the best candidate
     so far ([max_int]/[-1] for invalidated nodes not yet re-offered a
     path); the tree entry is stale and must not be read.
   - settled: the tree entry has been patched with the final value.

   Every strict improvement pushes a (key, link-id) entry; a popped entry
   is acted on only if it still matches [newdist] (lazy deletion).  Exact
   ties never push: for a touched node the candidate parent array is
   lowered in place, for an untouched node the tree's parent pointer is
   patched directly — a parent swap at equal distance changes nothing
   downstream.  Ties arriving after a node settled are impossible: an
   achieving predecessor's key is at least one edge weight below the
   node's, so it settles (and relaxes) strictly earlier in the monotone
   pop order, and achieving predecessors that never enter the queue are
   exactly the intact ones the seeding phase already scanned.

   Structure note: [repair_staged] runs every routing period on the simulator's
   steady path and is pinned allocation-free by the A0xx gate (DESIGN.md
   §8).  Hence no local closures (their environment blocks allocate): the
   changes arrive through a staging buffer of int columns in the scratch,
   the flood worklist is an int stack there too, queue pops go through a
   reusable {!Radix_queue.slot}, and parent patches draw on a preallocated
   [Some link-id] cache instead of boxing a fresh option per patch. *)

type scratch = {
  queue : Radix_queue.t;
  slot : Radix_queue.slot; (* out-cell for allocation-free pops *)
  mutable stamp : int array; (* touched this epoch *)
  mutable settled : int array;
  mutable invalid : int array;
  mutable newdist : int array; (* composite; valid when touched *)
  mutable newparent : int array;
  mutable touched : int array; (* node ids, first [ntouched] live *)
  mutable ntouched : int;
  mutable stack : int array; (* flood worklist, first [nstack] live *)
  mutable nstack : int;
  mutable some_link : Link.id option array; (* some_link.(i) = Some (id i) *)
  mutable epoch : int;
  (* Staged changes for the next repair, first [nch] live. *)
  mutable ch_link : int array;
  mutable ch_old : int array;
  mutable ch_new : int array;
  mutable nch : int;
}

let scratch () =
  { queue = Radix_queue.create ();
    slot = Radix_queue.slot ();
    stamp = [||];
    settled = [||];
    invalid = [||];
    newdist = [||];
    newparent = [||];
    touched = [||];
    ntouched = 0;
    stack = [||];
    nstack = 0;
    some_link = [||];
    epoch = 0;
    ch_link = [||];
    ch_old = [||];
    ch_new = [||];
    nch = 0 }

(* Kept out of line: the resize path allocates, and inlining it into
   [repair_staged] would put those (cold) sites inside the A0xx-gated
   body. *)
let[@inline never] ready s n nl =
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.settled <- Array.make n 0;
    s.invalid <- Array.make n 0;
    s.newdist <- Array.make n 0;
    s.newparent <- Array.make n 0;
    s.touched <- Array.make n 0;
    s.stack <- Array.make n 0;
    s.epoch <- 0
  end;
  if Array.length s.some_link < nl then
    s.some_link <- Array.init nl (fun i -> Some (Link.id_of_int i));
  s.epoch <- s.epoch + 1;
  s.ntouched <- 0;
  s.nstack <- 0;
  Radix_queue.clear s.queue

let parent_id (parent : Link.id option array) v =
  match parent.(v) with None -> -1 | Some lid -> Link.id_to_int lid

(* Composite distance under the old table, decoded from the tree — only
   meaningful for untouched nodes. *)
let old_comp dist_u hops_u v =
  Dijkstra.composite ~dist:dist_u.(v) ~hops:hops_u.(v)

let touch s epoch v =
  if s.stamp.(v) <> epoch then begin
    s.stamp.(v) <- epoch;
    s.touched.(s.ntouched) <- v;
    s.ntouched <- s.ntouched + 1
  end

let invalidate s epoch v =
  if s.invalid.(v) <> epoch then begin
    s.invalid.(v) <- epoch;
    touch s epoch v;
    s.newdist.(v) <- max_int;
    s.newparent.(v) <- -1;
    s.stack.(s.nstack) <- v;
    s.nstack <- s.nstack + 1
  end

let[@inline never] grow_changes s =
  let cap = max 16 (2 * s.nch) in
  let grow a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 s.nch;
    a'
  in
  s.ch_link <- grow s.ch_link;
  s.ch_old <- grow s.ch_old;
  s.ch_new <- grow s.ch_new

let stage s lid ~old_w ~new_w =
  if s.nch = Array.length s.ch_link then grow_changes s;
  s.ch_link.(s.nch) <- Link.id_to_int lid;
  s.ch_old.(s.nch) <- old_w;
  s.ch_new.(s.nch) <- new_w;
  s.nch <- s.nch + 1
[@@hot_path]

(* Phase 1: invalidate the direct children of worsened parent links.  The
   root has no parent and is never invalidated, so distance 0 stays
   anchored. *)
let seed_increases s g parent epoch =
  for c = 0 to s.nch - 1 do
    let old_w = s.ch_old.(c) and new_w = s.ch_new.(c) in
    if old_w >= 0 && (new_w < 0 || new_w > old_w) then begin
      let lid = s.ch_link.(c) in
      let v = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.dst in
      if parent_id parent v = lid then invalidate s epoch v
    end
  done
[@@hot_path]

(* Phase 3b: decreased links from intact sources.  Invalidated
   destinations were already offered this link by the in-scan of phase 3a;
   invalidated sources relax it when (if) they re-settle. *)
let seed_decreases s g parent dist_u hops_u epoch =
  for c = 0 to s.nch - 1 do
    let old_w = s.ch_old.(c) and new_w = s.ch_new.(c) in
    if new_w >= 0 && (old_w < 0 || new_w < old_w) then begin
      let lid = s.ch_link.(c) in
      let l = Graph.link g (Link.id_of_int lid) in
      let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
      if s.invalid.(u) <> epoch && s.invalid.(v) <> epoch then begin
        let du =
          if s.stamp.(u) = epoch then s.newdist.(u)
          else old_comp dist_u hops_u u
        in
        if du <> max_int then begin
          let cand = du + new_w in
          let cur =
            if s.stamp.(v) = epoch then s.newdist.(v)
            else old_comp dist_u hops_u v
          in
          if cand < cur then begin
            touch s epoch v;
            s.newdist.(v) <- cand;
            s.newparent.(v) <- lid;
            Radix_queue.push s.queue ~key:cand ~tie:lid v
          end
          else if cand = cur then
            if s.stamp.(v) = epoch then begin
              if lid < s.newparent.(v) then s.newparent.(v) <- lid
            end
            else if lid < parent_id parent v then
              parent.(v) <- s.some_link.(lid)
        end
      end
    end
  done
[@@hot_path]

let repair_staged s g ~tree ~weights =
  let n = Graph.node_count g in
  ready s n (Graph.link_count g);
  let parent = Spf_tree.unsafe_parent tree in
  let dist_u = Spf_tree.unsafe_dist tree in
  let hops_u = Spf_tree.unsafe_hops tree in
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let in_off = Graph.csr_in_off g in
  let in_link_ids = Graph.csr_in_link_ids g in
  let epoch = s.epoch in
  seed_increases s g parent epoch;
  (* Phase 2: flood invalidation down the suspect subtrees. *)
  while s.nstack > 0 do
    s.nstack <- s.nstack - 1;
    let u = s.stack.(s.nstack) in
    for k = out_off.(u) to out_off.(u + 1) - 1 do
      let j = out_dst.(k) in
      if s.invalid.(j) <> epoch && parent_id parent j = out_link_ids.(k) then
        invalidate s epoch j
    done
  done;
  (* Phase 3a: offer each invalidated node its best in-link from intact
     nodes.  Intact distances may still shrink (a pending decrease), in
     which case the seed is an over-approximation of a path that does
     exist — the source's own settle re-relaxes with the better value
     before the stale entry can win a pop. *)
  let ninvalid = s.ntouched in
  for t = 0 to ninvalid - 1 do
    let v = s.touched.(t) in
    let best_w = ref max_int and best_l = ref (-1) in
    for k = in_off.(v) to in_off.(v + 1) - 1 do
      let lid = in_link_ids.(k) in
      let ew = weights.(lid) in
      if ew >= 0 then begin
        let u = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.src in
        if s.invalid.(u) <> epoch then begin
          let du = old_comp dist_u hops_u u in
          if du <> max_int then begin
            let cand = du + ew in
            if cand < !best_w || (cand = !best_w && lid < !best_l) then begin
              best_w := cand;
              best_l := lid
            end
          end
        end
      end
    done;
    if !best_w <> max_int then begin
      s.newdist.(v) <- !best_w;
      s.newparent.(v) <- !best_l;
      Radix_queue.push s.queue ~key:!best_w ~tie:!best_l v
    end
  done;
  seed_decreases s g parent dist_u hops_u epoch;
  (* Phase 4: monotone re-settle, patching the tree exactly as a fresh
     computation would decode it. *)
  let resettled = ref 0 in
  let slot = s.slot in
  while Radix_queue.pop_min_into s.queue slot do
    let w = slot.Radix_queue.key and v = slot.Radix_queue.value in
    if s.settled.(v) <> epoch && s.newdist.(v) = w then begin
      s.settled.(v) <- epoch;
      incr resettled;
      dist_u.(v) <- Dijkstra.composite_units w;
      hops_u.(v) <- Dijkstra.composite_hops w;
      parent.(v) <-
        (if s.newparent.(v) < 0 then None else s.some_link.(s.newparent.(v)));
      for k = out_off.(v) to out_off.(v + 1) - 1 do
        let lid = out_link_ids.(k) in
        let ew = weights.(lid) in
        let j = out_dst.(k) in
        if ew >= 0 && s.settled.(j) <> epoch then begin
          let w' = w + ew in
          let cur =
            if s.stamp.(j) = epoch then s.newdist.(j)
            else old_comp dist_u hops_u j
          in
          if w' < cur then begin
            touch s epoch j;
            s.newdist.(j) <- w';
            s.newparent.(j) <- lid;
            Radix_queue.push s.queue ~key:w' ~tie:lid j
          end
          else if w' = cur then
            if s.stamp.(j) = epoch then begin
              if lid < s.newparent.(j) then s.newparent.(j) <- lid
            end
            else if lid < parent_id parent j then
              parent.(j) <- s.some_link.(lid)
        end
      done
    end
  done;
  (* Touched nodes that never re-settled have no surviving path: every
     strict improvement pushed an entry at its final value, so only
     [max_int] candidates can be left standing. *)
  for t = 0 to s.ntouched - 1 do
    let v = s.touched.(t) in
    if s.settled.(v) <> epoch then begin
      dist_u.(v) <- max_int;
      hops_u.(v) <- max_int;
      parent.(v) <- None
    end
  done;
  s.nch <- 0;
  !resettled
[@@hot_path]
