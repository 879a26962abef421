open! Import

(* See the .mli for the algorithm outline and the bit-identity argument.

   The repair runs on the tree's own columns.  During one repair a node's
   composite distance and parent in the tree are its best candidate so
   far: the old value for nodes the changes have not reached (exact, or an
   over-approximation that a pending decrease will lower through the
   heap), [max_int]/-1 for invalidated nodes not yet offered a path.
   Every strict improvement writes the candidate and pushes the node or
   lowers its key, so the heap always holds exactly the nodes whose
   candidate improved and has not settled yet, keyed by it.  Exact ties never touch the
   heap: they lower the parent column in place (a parent swap at equal
   distance changes nothing downstream).  Ties arriving after a node
   settled are impossible: an achieving predecessor's key is at least one
   edge weight below the node's, so it pops (and relaxes) strictly
   earlier, and achieving predecessors that never enter the heap are
   exactly the intact ones the seeding phase already scanned.  For the
   same reason a popped node's settled neighbours can neither improve nor
   tie, so settled flags are not needed either.

   Invalidated nodes that no surviving path reaches are never pushed and
   keep the [max_int]/-1 written when they were invalidated: the tree
   marks them unreachable without a clean-up pass.

   Structure note: [repair_staged] runs every routing period on the
   simulator's steady path and is pinned allocation-free by the A0xx gate
   (DESIGN.md §8).  Hence no local closures (their environment blocks
   allocate): the changes arrive through a staging buffer of int columns
   in the scratch, and the invalidation worklist is an int array there
   too. *)

type scratch = {
  heap : Node_heap.t;
  mutable invalid : int array; (* epoch stamp: invalidated this repair *)
  mutable inv : int array; (* invalidated node ids, first [ninv] live *)
  mutable ninv : int;
  mutable epoch : int;
  (* Staged changes for the next repair, first [nch] live. *)
  mutable ch_link : int array;
  mutable ch_old : int array;
  mutable ch_new : int array;
  mutable nch : int;
  mutable slot : int array;
      (* link id -> its staged entry; live iff [slot.(l) < nch] and
         [ch_link.(slot.(l)) = l], so it is never cleared *)
}

let scratch () =
  { heap = Node_heap.create ();
    invalid = [||];
    inv = [||];
    ninv = 0;
    epoch = 0;
    ch_link = [||];
    ch_old = [||];
    ch_new = [||];
    nch = 0;
    slot = [||] }

(* Kept out of line: the resize path allocates, and inlining it into
   [repair_staged] would put those (cold) sites inside the A0xx-gated
   body. *)
let[@inline never] ready s n =
  if Array.length s.invalid < n then begin
    s.invalid <- Array.make n 0;
    s.inv <- Array.make n 0;
    s.epoch <- 0
  end;
  s.epoch <- s.epoch + 1;
  s.ninv <- 0;
  Node_heap.reset s.heap n

let invalidate s comp parent epoch v =
  if s.invalid.(v) <> epoch then begin
    s.invalid.(v) <- epoch;
    comp.(v) <- max_int;
    parent.(v) <- -1;
    s.inv.(s.ninv) <- v;
    s.ninv <- s.ninv + 1
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

let[@inline never] grow_slots s l =
  let a = Array.make (max (l + 1) (2 * Array.length s.slot)) 0 in
  Array.blit s.slot 0 a 0 (Array.length s.slot);
  s.slot <- a

(* A link staged again before the repair folds into its first entry, which
   then spans the first [old_w] to the latest [new_w]: the phases below
   read each entry as the link's whole change and would otherwise offer a
   stale weight. *)
let stage s lid ~old_w ~new_w =
  let l = Link.id_to_int lid in
  if l >= Array.length s.slot then grow_slots s l;
  let c = s.slot.(l) in
  if c < s.nch && s.ch_link.(c) = l then s.ch_new.(c) <- new_w
  else begin
    if s.nch = Array.length s.ch_link then grow_changes s;
    s.slot.(l) <- s.nch;
    s.ch_link.(s.nch) <- l;
    s.ch_old.(s.nch) <- old_w;
    s.ch_new.(s.nch) <- new_w;
    s.nch <- s.nch + 1
  end
[@@hot_path]

(* Phase 1: invalidate the direct children of worsened parent links.  The
   root has no parent and is never invalidated, so distance 0 stays
   anchored. *)
let seed_increases s g comp parent epoch =
  for c = 0 to s.nch - 1 do
    let old_w = s.ch_old.(c) and new_w = s.ch_new.(c) in
    if old_w >= 0 && (new_w < 0 || new_w > old_w) then begin
      let lid = s.ch_link.(c) in
      let v = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.dst in
      if parent.(v) = lid then invalidate s comp parent epoch v
    end
  done
[@@hot_path]

(* Phase 3b: decreased links from intact sources.  Invalidated
   destinations were already offered this link by the in-scan of phase 3a;
   invalidated sources relax it when (if) they re-settle. *)
let seed_decreases s g comp parent epoch =
  for c = 0 to s.nch - 1 do
    let old_w = s.ch_old.(c) and new_w = s.ch_new.(c) in
    if new_w >= 0 && (old_w < 0 || new_w < old_w) then begin
      let lid = s.ch_link.(c) in
      let l = Graph.link g (Link.id_of_int lid) in
      let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
      if s.invalid.(u) <> epoch && s.invalid.(v) <> epoch then begin
        let du = comp.(u) in
        if du <> max_int then begin
          let cand = du + new_w in
          let cur = comp.(v) in
          if cand < cur then begin
            comp.(v) <- cand;
            parent.(v) <- lid;
            Node_heap.push s.heap v ~key:cand
          end
          else if cand = cur && lid < parent.(v) then parent.(v) <- lid
        end
      end
    end
  done
[@@hot_path]

let repair_staged s g ~tree ~weights =
  ready s (Graph.node_count g);
  let comp = Spf_tree.unsafe_comp tree in
  let parent = Spf_tree.unsafe_parent tree in
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let in_off = Graph.csr_in_off g in
  let in_link_ids = Graph.csr_in_link_ids g in
  let epoch = s.epoch in
  let heap = s.heap in
  seed_increases s g comp parent epoch;
  (* Phase 2: flood invalidation down the suspect subtrees.  The list of
     invalidated nodes is its own worklist: [f] scans it while it grows. *)
  let f = ref 0 in
  while !f < s.ninv do
    let u = s.inv.(!f) in
    incr f;
    for k = out_off.(u) to out_off.(u + 1) - 1 do
      let j = out_dst.(k) in
      if s.invalid.(j) <> epoch && parent.(j) = out_link_ids.(k) then
        invalidate s comp parent epoch j
    done
  done;
  (* Phase 3a: offer each invalidated node its best in-link from intact
     nodes.  Intact distances may still shrink (a pending decrease), in
     which case the seed is an over-approximation of a path that does
     exist — the source's own settle re-relaxes with the better value
     and lowers the key before the stale one can pop. *)
  for t = 0 to s.ninv - 1 do
    let v = s.inv.(t) in
    let best_w = ref max_int and best_l = ref (-1) in
    for k = in_off.(v) to in_off.(v + 1) - 1 do
      let lid = in_link_ids.(k) in
      let ew = weights.(lid) in
      if ew >= 0 then begin
        let u = Node.to_int (Graph.link g (Link.id_of_int lid)).Link.src in
        if s.invalid.(u) <> epoch then begin
          let du = comp.(u) in
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
      comp.(v) <- !best_w;
      parent.(v) <- !best_l;
      Node_heap.push heap v ~key:!best_w
    end
  done;
  seed_decreases s g comp parent epoch;
  (* Phase 4: monotone re-settle.  A popped node's column entries are
     final; relaxing its out-links offers its neighbours candidates. *)
  let resettled = ref 0 in
  while not (Node_heap.is_empty heap) do
    let v = Node_heap.pop_min heap in
    incr resettled;
    let w = comp.(v) in
    for k = out_off.(v) to out_off.(v + 1) - 1 do
      let lid = out_link_ids.(k) in
      let ew = weights.(lid) in
      if ew >= 0 then begin
        let j = out_dst.(k) in
        let w' = w + ew in
        let cur = comp.(j) in
        if w' < cur then begin
          comp.(j) <- w';
          parent.(j) <- lid;
          Node_heap.push heap j ~key:w'
        end
        else if w' = cur && lid < parent.(j) then parent.(j) <- lid
      end
    done
  done;
  s.nch <- 0;
  !resettled
[@@hot_path]
