open! Import

type t = {
  owner : Node.t;
  graph : Graph.t;
  hops : int array; (* first-hop link id, -1 for none *)
  stamp : int array; (* hops.(v) is current when stamp.(v) = epoch *)
  mutable epoch : int;
}

let create graph ~owner =
  let n = Graph.node_count graph in
  { owner; graph; hops = Array.make n (-1); stamp = Array.make n 0; epoch = 0 }

(* The first hop toward [v] is its root-child ancestor's parent link.
   Climbing from [v] memoises every node passed, so a whole refresh climbs
   each tree edge once. *)
let rec first_hop t parent root v =
  if t.stamp.(v) = t.epoch then t.hops.(v)
  else begin
    let p = parent.(v) in
    let hop =
      if p < 0 then -1
      else begin
        let u =
          Node.to_int (Graph.link t.graph (Link.id_of_int p)).Link.src
        in
        if u = root then p else first_hop t parent root u
      end
    in
    t.hops.(v) <- hop;
    t.stamp.(v) <- t.epoch;
    hop
  end

let refresh t tree =
  t.epoch <- t.epoch + 1;
  let parent = Spf_tree.unsafe_parent tree in
  let root = Node.to_int t.owner in
  for v = 0 to Array.length t.hops - 1 do
    ignore (first_hop t parent root v)
  done
[@@hot_path]

let of_tree tree =
  let t = create (Spf_tree.graph tree) ~owner:(Spf_tree.root tree) in
  refresh t tree;
  t

let owner t = t.owner

let next_hop t dst =
  let h = t.hops.(Node.to_int dst) in
  if h < 0 then None else Some (Graph.link t.graph (Link.id_of_int h))

let reachable_count t =
  Array.fold_left (fun acc h -> if h >= 0 then acc + 1 else acc) 0 t.hops

type trace =
  | Arrived of Link.t list
  | Loop of Node.t list
  | Black_hole of Node.t

let trace_route tables ~src ~dst =
  let n = Array.length tables in
  let visited = Array.make n false in
  let rec step node acc =
    if Node.equal node dst then Arrived (List.rev acc)
    else if visited.(Node.to_int node) then
      Loop (List.rev_map (fun (l : Link.t) -> l.Link.src) acc)
    else begin
      visited.(Node.to_int node) <- true;
      match next_hop tables.(Node.to_int node) dst with
      | None -> Black_hole node
      | Some l -> step l.Link.dst (l :: acc)
    end
  in
  step src []

let pp_trace g ppf = function
  | Arrived links ->
    let names =
      match links with
      | [] -> []
      | first :: _ ->
        Graph.node_name g first.Link.src
        :: List.map (fun (l : Link.t) -> Graph.node_name g l.Link.dst) links
    in
    Format.fprintf ppf "arrived via %s" (String.concat " -> " names)
  | Loop nodes ->
    Format.fprintf ppf "LOOP through %s"
      (String.concat " -> " (List.map (Graph.node_name g) nodes))
  | Black_hole node ->
    Format.fprintf ppf "BLACK HOLE at %s" (Graph.node_name g node)
