open! Import

(* A tree is two int columns indexed by node id: the composite distance
   ([units * hop_scale + hops], [max_int] = unreached) and the arriving
   link id (-1 = none).  [Dijkstra] and [Spf_repair] run on these very
   columns, so a recompute or repair writes nothing else. *)
type t = {
  graph : Graph.t;
  root : Node.t;
  comp : int array;
  parent : int array;
}

let hop_scale = 256

let composite_units c = if c = max_int then max_int else c / hop_scale

let composite_hops c = if c = max_int then max_int else c land (hop_scale - 1)

let make ~graph ~root =
  let n = Graph.node_count graph in
  { graph; root; comp = Array.make n max_int; parent = Array.make n (-1) }

let graph t = t.graph

let root t = t.root

let reached t n = t.comp.(Node.to_int n) <> max_int

let dist t n = composite_units t.comp.(Node.to_int n)

let hops t n = composite_hops t.comp.(Node.to_int n)

let link_of t lid = Graph.link t.graph (Link.id_of_int lid)

let parent_link t n =
  let p = t.parent.(Node.to_int n) in
  if p < 0 then None else Some (link_of t p)

(* Raw int-indexed accessors for hot loops: no option or Node.t boxing. *)

let reached_i t i = t.comp.(i) <> max_int

let hops_i t i = composite_hops t.comp.(i)

let comp_i t i = t.comp.(i)

let parent_id t i = t.parent.(i)

(* The tree's own columns, one accessor each: a tuple return would box,
   which the repair path cannot afford on its steady path. *)

let unsafe_comp t = t.comp

let unsafe_parent t = t.parent

let path t dst =
  if not (reached t dst) then invalid_arg "Spf_tree.path: unreachable";
  let rec climb n acc =
    let p = t.parent.(Node.to_int n) in
    if p < 0 then acc
    else begin
      let l = link_of t p in
      climb l.Link.src (l :: acc)
    end
  in
  climb dst []

let next_hop t dst =
  if Node.equal dst t.root || not (reached t dst) then None
  else begin
    let rec climb n =
      let p = t.parent.(Node.to_int n) in
      if p < 0 then None
      else begin
        let l = link_of t p in
        if Node.equal l.Link.src t.root then Some l else climb l.Link.src
      end
    in
    climb dst
  end

let uses_link t dst lid =
  reached t dst
  &&
  let target = Link.id_to_int lid in
  let rec climb n =
    let p = t.parent.(Node.to_int n) in
    p >= 0 && (p = target || climb (link_of t p).Link.src)
  in
  climb dst

let fold_reached t ~init ~f =
  let acc = ref init in
  Graph.iter_nodes t.graph (fun n ->
      if reached t n && not (Node.equal n t.root) then acc := f !acc n);
  !acc

let destinations_via t lid =
  fold_reached t ~init:[] ~f:(fun acc n ->
      if uses_link t n lid then n :: acc else acc)
  |> List.rev

let equal a b =
  Node.equal a.root b.root && a.comp = b.comp && a.parent = b.parent
