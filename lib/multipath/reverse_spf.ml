open! Import

type t = {
  graph : Graph.t;
  destination : Node.t;
  dist : int array; (* to destination, per node *)
  hops : (Link.t list) array; (* equal-cost next-hop sets *)
}

let compute ?(enabled = fun _ -> true) g ~cost dst =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  let in_off = Graph.csr_in_off g in
  let in_link_ids = Graph.csr_in_link_ids g in
  (* Distances do not depend on the order equal keys settle in.  With
     non-negative costs a settled node's distance is at most the popped
     one, so relaxing into it never succeeds: no settled flags. *)
  let heap = Node_heap.create () in
  Node_heap.reset heap n;
  dist.(Node.to_int dst) <- 0;
  Node_heap.push heap (Node.to_int dst) ~key:0;
  while not (Node_heap.is_empty heap) do
    let i = Node_heap.pop_min heap in
    let d = dist.(i) in
    (* Relax the *incoming* links: a shorter way for their tails. *)
    for k = in_off.(i) to in_off.(i + 1) - 1 do
      let lid = Link.id_of_int in_link_ids.(k) in
      if enabled lid then begin
        let j = Node.to_int (Graph.link g lid).Link.src in
        let d' = d + cost lid in
        if d' < dist.(j) then begin
          dist.(j) <- d';
          Node_heap.push heap j ~key:d'
        end
      end
    done
  done;
  let hops =
    Array.init n (fun i ->
        if i = Node.to_int dst || dist.(i) = max_int then []
        else
          List.filter
            (fun (l : Link.t) ->
              enabled l.Link.id
              && dist.(Node.to_int l.Link.dst) <> max_int
              && cost l.Link.id + dist.(Node.to_int l.Link.dst) = dist.(i))
            (Graph.out_links g (Node.of_int i)))
  in
  { graph = g; destination = dst; dist; hops }

let destination t = t.destination

let dist_to t node = t.dist.(Node.to_int node)

let reaches t node = t.dist.(Node.to_int node) <> max_int

let next_hops t node = t.hops.(Node.to_int node)

let nodes_by_descending_distance t =
  Graph.nodes t.graph
  |> List.filter (reaches t)
  |> List.sort (fun a b -> Int.compare (dist_to t b) (dist_to t a))
