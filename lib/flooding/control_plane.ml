open! Import

type t = {
  graph : Graph.t;
  metric : Metric.t;
  flooders : Flooder.t array; (* per node *)
  link_src : int array; (* per link: the owning PSN *)
  (* Per-period scratch, sized once: the metric's flooded links, their
     costs grouped per origin, and the origins touched. *)
  changed_ids : int array;
  changed_costs : int array;
  by_origin : (Link.id * int) list array;
  origins : int array;
}

let create metric =
  let graph = Metric.graph metric in
  let nl = Graph.link_count graph and n = Graph.node_count graph in
  { graph;
    metric;
    flooders =
      Array.init n (fun i -> Flooder.create graph ~owner:(Node.of_int i));
    link_src =
      Array.init nl (fun i ->
          Node.to_int (Graph.link graph (Link.id_of_int i)).Link.src);
    changed_ids = Array.make nl 0;
    changed_costs = Array.make nl 0;
    by_origin = Array.make n [];
    origins = Array.make n 0 }

let metric t = t.metric

let flooder t node = t.flooders.(Node.to_int node)

(* Insertion sort of [a.(0 .. len-1)]: a period touches few origins, and
   sorting in place allocates nothing. *)
let sort_prefix a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let period t ~up ~link_delay_s =
  let nch =
    Metric.period_update_all t.metric ~up ~link_delay_s
      ~changed_ids:t.changed_ids ~changed_costs:t.changed_costs
  in
  if nch = 0 then []
  else begin
    (* Links arrive in ascending id order, so consing leaves each
       origin's costs in descending id order. *)
    let touched = ref 0 in
    for k = 0 to nch - 1 do
      let li = t.changed_ids.(k) in
      let origin = t.link_src.(li) in
      if t.by_origin.(origin) = [] then begin
        t.origins.(!touched) <- origin;
        incr touched
      end;
      t.by_origin.(origin) <-
        (Link.id_of_int li, t.changed_costs.(k)) :: t.by_origin.(origin)
    done;
    sort_prefix t.origins !touched;
    (* Each origin stamps its own sequence number, so originating from the
       highest node down (to cons an ascending list) changes nothing. *)
    let updates = ref [] in
    for k = !touched - 1 downto 0 do
      let origin = t.origins.(k) in
      let costs = t.by_origin.(origin) in
      t.by_origin.(origin) <- [];
      updates := Flooder.originate t.flooders.(origin) ~costs :: !updates
    done;
    !updates
  end

let flood t u = Broadcast.flood t.graph t.flooders u
