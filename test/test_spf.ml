(* Unit and property tests for the routing_spf library. *)

open Routing_topology
module Node_heap = Routing_spf.Node_heap
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Spf_repair = Routing_spf.Spf_repair
module Routing_table = Routing_spf.Routing_table
module Spf_engine = Routing_spf.Spf_engine
module Rng = Routing_stats.Rng

(* --- helpers --- *)

let diamond () =
  (* A - B - D and A - C - D, plus a direct A - D. *)
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "B" "D" in
  let _ = Builder.trunk b Line_type.T56 "A" "C" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  let _ = Builder.trunk b Line_type.T56 "A" "D" in
  Builder.build b

let node g name = Option.get (Graph.node_by_name g name)

let constant_cost c = fun _ -> c

let random_graph seed =
  let rng = Rng.create seed in
  let nodes = 4 + Rng.int rng 12 in
  Generators.ring_chord rng ~nodes ~chords:(Rng.int rng (2 * nodes))

let random_costs seed g =
  let rng = Rng.create (seed + 7919) in
  let costs = Array.init (Graph.link_count g) (fun _ -> 1 + Rng.int rng 60) in
  fun lid -> costs.(Link.id_to_int lid)

(* --- Dijkstra --- *)

let test_dijkstra_direct_wins () =
  let g = diamond () in
  let tree = Dijkstra.compute g ~cost:(constant_cost 10) (node g "A") in
  Alcotest.(check int) "direct cost" 10 (Spf_tree.dist tree (node g "D"));
  Alcotest.(check int) "one hop" 1 (Spf_tree.hops tree (node g "D"));
  Alcotest.(check int) "root dist" 0 (Spf_tree.dist tree (node g "A"))

let test_dijkstra_reroutes_around_expensive_link () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let cost lid = if Link.id_equal lid direct.Link.id then 50 else 10 in
  let tree = Dijkstra.compute g ~cost a in
  Alcotest.(check int) "two-hop detour" 20 (Spf_tree.dist tree d);
  Alcotest.(check int) "hops" 2 (Spf_tree.hops tree d);
  Alcotest.(check bool) "avoids direct link" false
    (Spf_tree.uses_link tree d direct.Link.id)

let test_dijkstra_tie_break_neutral_deterministic () =
  let g = diamond () in
  let a = node g "A" in
  let t1 = Dijkstra.compute g ~cost:(constant_cost 7) a in
  let t2 = Dijkstra.compute g ~cost:(constant_cost 7) a in
  Graph.iter_nodes g (fun n ->
      Alcotest.(check bool) "same parents" true
        (match (Spf_tree.parent_link t1 n, Spf_tree.parent_link t2 n) with
        | None, None -> true
        | Some l1, Some l2 -> Link.id_equal l1.Link.id l2.Link.id
        | _ -> false))

let test_dijkstra_enabled () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let tree =
    Dijkstra.compute
      ~enabled:(fun lid -> not (Link.id_equal lid direct.Link.id))
      g ~cost:(constant_cost 10) a
  in
  Alcotest.(check int) "routes around down link" 20 (Spf_tree.dist tree d)

let test_dijkstra_unreachable () =
  let b = Builder.create () in
  let _ = Builder.trunk b Line_type.T56 "A" "B" in
  let _ = Builder.trunk b Line_type.T56 "C" "D" in
  let g = Builder.build b in
  let tree = Dijkstra.compute g ~cost:(constant_cost 5) (node g "A") in
  Alcotest.(check bool) "C unreached" false (Spf_tree.reached tree (node g "C"));
  Alcotest.(check int) "dist max_int" max_int (Spf_tree.dist tree (node g "C"));
  Alcotest.check_raises "path raises"
    (Invalid_argument "Spf_tree.path: unreachable") (fun () ->
      ignore (Spf_tree.path tree (node g "C")))

let test_dijkstra_rejects_bad_cost () =
  let g = diamond () in
  Alcotest.(check bool) "raises on zero cost" true
    (try
       ignore (Dijkstra.compute g ~cost:(constant_cost 0) (node g "A"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "raises above max" true
    (try
       ignore (Dijkstra.compute g ~cost:(constant_cost 255) (node g "A"));
       false
     with Invalid_argument _ -> true)

(* Shortest-path distances must satisfy the Bellman optimality condition:
   for every link (u,v), dist(v) <= dist(u) + cost(u,v), with equality for
   tree links. *)
let prop_dijkstra_optimality =
  QCheck2.Test.make ~name:"dijkstra satisfies Bellman conditions" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tree = Dijkstra.compute g ~cost (Node.of_int 0) in
      let ok = ref true in
      Graph.iter_links g (fun l ->
          let du = Spf_tree.dist tree l.Link.src in
          let dv = Spf_tree.dist tree l.Link.dst in
          if du <> max_int && dv > du + cost l.Link.id then ok := false);
      Graph.iter_nodes g (fun n ->
          match Spf_tree.parent_link tree n with
          | None -> ()
          | Some l ->
            let du = Spf_tree.dist tree l.Link.src in
            if Spf_tree.dist tree n <> du + cost l.Link.id then ok := false);
      !ok)

(* Distributed Bellman-Ford with static costs converges to the same
   distances SPF computes — the two generations of ARPANET routing agree
   when nothing moves. *)
let prop_dijkstra_agrees_with_bellman_ford =
  QCheck2.Test.make ~name:"dijkstra = converged bellman-ford" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let bf = Routing_bellman.Bellman_ford.create g in
      (match
         Routing_bellman.Bellman_ford.rounds_to_converge bf ~link_cost:cost
           ~max_rounds:(2 * Graph.node_count g)
       with
      | None -> Alcotest.fail "bellman-ford did not converge on static costs"
      | Some _ -> ());
      let ok = ref true in
      Graph.iter_nodes g (fun src ->
          let tree = Dijkstra.compute g ~cost src in
          Graph.iter_nodes g (fun dst ->
              let bf_dist =
                Routing_bellman.Bellman_ford.distance bf ~from:src dst
              in
              let spf_dist =
                if Spf_tree.reached tree dst then Some (Spf_tree.dist tree dst)
                else None
              in
              let spf_dist = if Node.equal src dst then Some 0 else spf_dist in
              if bf_dist <> spf_dist then ok := false));
      !ok)

(* Hereditary property (§4.1): every subpath of a shortest path is a
   shortest path — checked via next_hop consistency. *)
let prop_shortest_paths_hereditary =
  QCheck2.Test.make ~name:"subpaths of shortest paths are shortest" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tree = Dijkstra.compute g ~cost (Node.of_int 0) in
      let ok = ref true in
      Graph.iter_nodes g (fun dst ->
          if Spf_tree.reached tree dst then begin
            let along = ref 0 in
            List.iter
              (fun (l : Link.t) ->
                along := !along + cost l.Link.id;
                if Spf_tree.dist tree l.Link.dst <> !along then ok := false)
              (Spf_tree.path tree dst)
          end);
      !ok)

(* --- Spf_tree accessors --- *)

let test_tree_paths_and_next_hop () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let cost lid = if Link.id_equal lid direct.Link.id then 100 else 10 in
  let tree = Dijkstra.compute g ~cost a in
  let path = Spf_tree.path tree d in
  Alcotest.(check int) "path length" 2 (List.length path);
  (match Spf_tree.next_hop tree d with
  | Some l -> Alcotest.(check bool) "next hop from A" true (Node.equal l.Link.src a)
  | None -> Alcotest.fail "expected next hop");
  Alcotest.(check bool) "no next hop to self" true (Spf_tree.next_hop tree a = None);
  let via = Spf_tree.destinations_via tree (List.hd path).Link.id in
  Alcotest.(check bool) "destinations_via includes D" true
    (List.exists (Node.equal d) via)

(* One tree recomputed in place across many random weight tables: random
   costs (narrow ranges make ties common), random down links, and now and
   then every link out of the root down, so nodes go reached -> unreached
   -> reached.  The scratch first serves a larger graph, so its arrays are
   longer than this one's.  After every table the tree equals a fresh
   [compute_flat]. *)
let prop_compute_into_matches_flat =
  QCheck2.Test.make ~name:"compute_into on a reused tree = compute_flat"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.node_count g and nl = Graph.link_count g in
      let rng = Rng.create (seed * 17 + 3) in
      let s = Dijkstra.scratch () in
      let big = Generators.ring_chord (Rng.create seed) ~nodes:(n + 5) ~chords:n in
      ignore
        (Dijkstra.compute_flat_s s big
           ~weights:(Dijkstra.compute_weights big ~cost:(constant_cost 3))
           (Node.of_int 0));
      let root = Node.of_int (Rng.int rng n) in
      let tree =
        Dijkstra.compute_flat_s s g
          ~weights:(Dijkstra.compute_weights g ~cost:(constant_cost 1))
          root
      in
      let ok = ref true in
      for round = 1 to 25 do
        let range = if round mod 2 = 0 then 3 else 60 in
        let isolate = Rng.int rng 5 = 0 in
        let weights =
          Array.init nl (fun i ->
              let l = Graph.link g (Link.id_of_int i) in
              if isolate && Node.equal l.Link.src root then -1
              else if Rng.int rng 6 = 0 then -1
              else Dijkstra.cost_weight (1 + Rng.int rng range))
        in
        Dijkstra.compute_into s g ~weights tree;
        if not (Spf_tree.equal tree (Dijkstra.compute_flat g ~weights root))
        then ok := false
      done;
      !ok)

(* --- Incremental SPF: in-place tree repair --- *)

(* Set one link's composite weight ([-1] disables it) and repair [tree]
   over the change, as a PSN does on each routing update it accepts.
   Returns the number of nodes re-settled. *)
let set_weight s g ~tree weights lid w =
  let i = Link.id_to_int lid in
  let old_w = weights.(i) in
  weights.(i) <- w;
  Spf_repair.stage s lid ~old_w ~new_w:w;
  Spf_repair.repair_staged s g ~tree ~weights

let test_incremental_ignores_irrelevant_increase () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let weights = Dijkstra.compute_weights g ~cost:(constant_cost 10) in
  let tree = Dijkstra.compute_flat g ~weights a in
  (* Direct link is in the tree; a non-tree link's increase must be free. *)
  let non_tree =
    Graph.links g
    |> List.find (fun (l : Link.t) ->
           Node.equal l.Link.src d && not (Node.equal l.Link.dst a))
  in
  let resettled =
    set_weight (Spf_repair.scratch ()) g ~tree weights non_tree.Link.id
      (Dijkstra.cost_weight 200)
  in
  Alcotest.(check int) "nothing re-settled" 0 resettled;
  Alcotest.(check bool) "tree unchanged" true
    (Spf_tree.equal tree (Dijkstra.compute_flat g ~weights a))

let test_incremental_tracks_change () =
  let g = diamond () in
  let a = node g "A" and d = node g "D" in
  let direct = Option.get (Graph.find_link g ~src:a ~dst:d) in
  let weights = Dijkstra.compute_weights g ~cost:(constant_cost 10) in
  let tree = Dijkstra.compute_flat g ~weights a in
  let s = Spf_repair.scratch () in
  let set c =
    ignore
      (set_weight s g ~tree weights direct.Link.id (Dijkstra.cost_weight c))
  in
  Alcotest.(check int) "initial" 10 (Spf_tree.dist tree d);
  set 50;
  Alcotest.(check int) "after increase, detour" 20 (Spf_tree.dist tree d);
  set 5;
  Alcotest.(check int) "after decrease, direct again" 5 (Spf_tree.dist tree d)

(* Random single-link updates, disables and re-enables: after every one
   the repaired tree equals a fresh Dijkstra — distances, hop counts and
   parents.  Half the graphs draw costs from 1..4, so equal-cost ties (and
   the repair's parent-only patches) are common. *)
let prop_incremental_matches_full =
  QCheck2.Test.make ~name:"incremental = full recompute over update sequences"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed * 31 + 1) in
      let nl = Graph.link_count g in
      let range = if seed mod 2 = 0 then 4 else 60 in
      let costs = Array.init nl (fun _ -> 1 + Rng.int rng range) in
      let up = Array.make nl true in
      let root = Node.of_int (Rng.int rng (Graph.node_count g)) in
      let weights =
        Dijkstra.compute_weights g ~cost:(fun l -> costs.(Link.id_to_int l))
      in
      let tree = Dijkstra.compute_flat g ~weights root in
      let s = Spf_repair.scratch () in
      let ok = ref true in
      for _ = 1 to 30 do
        let lid = Rng.int rng nl in
        (match Rng.int rng 4 with
        | 0 -> up.(lid) <- not up.(lid)
        | _ -> costs.(lid) <- 1 + Rng.int rng range);
        let w = if up.(lid) then Dijkstra.cost_weight costs.(lid) else -1 in
        ignore (set_weight s g ~tree weights (Link.id_of_int lid) w);
        let fresh =
          Dijkstra.compute g
            ~enabled:(fun l -> up.(Link.id_to_int l))
            ~cost:(fun l -> costs.(Link.id_to_int l))
            root
        in
        if not (Spf_tree.equal tree fresh) then ok := false
      done;
      !ok)

(* §2.2's motivation quantified: most cost changes on a mesh do not touch
   a given node's tree, so the repair settles nothing for them. *)
let test_incremental_skip_rate () =
  let g = Routing_topology.Arpanet.topology () in
  let rng = Rng.create 3 in
  let costs = Array.make (Graph.link_count g) 30 in
  let weights = Dijkstra.compute_weights g ~cost:(constant_cost 30) in
  let root = Node.of_int 0 in
  let tree = Dijkstra.compute_flat g ~weights root in
  let s = Spf_repair.scratch () in
  let skipped = ref 0 in
  for _ = 1 to 500 do
    let lid = Rng.int rng (Graph.link_count g) in
    (* Increases only: the provable-skip case. *)
    let c = min 254 (costs.(lid) + 1 + Rng.int rng 40) in
    costs.(lid) <- c;
    if
      set_weight s g ~tree weights (Link.id_of_int lid) (Dijkstra.cost_weight c)
      = 0
    then incr skipped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "majority of increases settle nothing (%d/500)" !skipped)
    true
    (* ~39%% of links are on the probe tree, so ~61%% of random increases
       are provably irrelevant. *)
    (!skipped > 250);
  Alcotest.(check bool) "still exact" true
    (Spf_tree.equal tree (Dijkstra.compute_flat g ~weights root))

(* --- Routing tables --- *)

let test_routing_table_traces () =
  let g = diamond () in
  let tables =
    Array.init (Graph.node_count g) (fun i ->
        Routing_table.of_tree
          (Dijkstra.compute g ~cost:(constant_cost 10) (Node.of_int i)))
  in
  let a = node g "A" and d = node g "D" in
  (match Routing_table.trace_route tables ~src:a ~dst:d with
  | Routing_table.Arrived links ->
    Alcotest.(check int) "one hop direct" 1 (List.length links)
  | _ -> Alcotest.fail "should arrive");
  Alcotest.(check int) "reachable count" 3
    (Routing_table.reachable_count tables.(Node.to_int a))

let prop_consistent_tables_are_loop_free =
  QCheck2.Test.make ~name:"consistent SPF tables never loop" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let cost = random_costs seed g in
      let tables =
        Array.init (Graph.node_count g) (fun i ->
            Routing_table.of_tree (Dijkstra.compute g ~cost (Node.of_int i)))
      in
      let ok = ref true in
      Graph.iter_nodes g (fun src ->
          Graph.iter_nodes g (fun dst ->
              if not (Node.equal src dst) then
                match Routing_table.trace_route tables ~src ~dst with
                | Routing_table.Arrived _ -> ()
                | Routing_table.Loop _ | Routing_table.Black_hole _ ->
                  ok := false));
      !ok)

(* A table refreshed in place after each tree repair reads exactly like a
   table built fresh from the repaired tree. *)
let prop_refresh_matches_of_tree =
  QCheck2.Test.make ~name:"in-place refresh = of_tree" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 17) in
      let nl = Graph.link_count g in
      let root = Node.of_int (Rng.int rng (Graph.node_count g)) in
      let weights = Dijkstra.compute_weights g ~cost:(random_costs seed g) in
      let tree = Dijkstra.compute_flat g ~weights root in
      let table = Routing_table.of_tree tree in
      let s = Spf_repair.scratch () in
      let same () =
        let fresh = Routing_table.of_tree tree in
        List.for_all
          (fun n ->
            Option.map (fun (l : Link.t) -> l.Link.id)
              (Routing_table.next_hop table n)
            = Option.map (fun (l : Link.t) -> l.Link.id)
                (Spf_tree.next_hop tree n)
            && Routing_table.next_hop table n = Routing_table.next_hop fresh n)
          (Graph.nodes g)
      in
      let ok = ref (same ()) in
      for _ = 1 to 20 do
        let lid = Rng.int rng nl in
        let w =
          if Rng.int rng 5 = 0 then -1 else Dijkstra.cost_weight (1 + Rng.int rng 60)
        in
        ignore (set_weight s g ~tree weights (Link.id_of_int lid) w);
        Routing_table.refresh table tree;
        if not (same ()) then ok := false
      done;
      !ok)

(* --- Node heap --- *)

(* Random pushes (inserts and decrease-keys), pops and drains against a
   model that keeps each queued node's key.  Keys come from a narrow range,
   so ties are common; equal keys may pop in any order, so each pop must
   return a node the model holds at the model's minimum key.  A drain
   empties the heap, and later pushes reuse the nodes it popped; now and
   then the heap is reset to the same or a larger size, which drops
   everything queued. *)
let prop_node_heap_matches_model =
  QCheck2.Test.make ~name:"node heap = keyed model" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 0 300)
           (triple (int_range 0 19) (int_range 0 1000) (int_range 0 30))))
    (fun (n0, ops) ->
      let n = ref n0 in
      let h = Node_heap.create () in
      Node_heap.reset h !n;
      let model = ref (Array.make !n (-1)) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let pop () =
        let m =
          Array.fold_left
            (fun m k -> if k >= 0 && k < m then k else m)
            max_int !model
        in
        check (Node_heap.is_empty h = (m = max_int));
        if m <> max_int then begin
          let v = Node_heap.pop_min h in
          check (!model.(v) = m);
          !model.(v) <- -1
        end
      in
      let drain () =
        while not (Node_heap.is_empty h) do
          pop ()
        done;
        check (Array.for_all (fun k -> k < 0) !model)
      in
      List.iter
        (fun (tag, r, key) ->
          match tag with
          | t when t < 11 ->
            let v = r mod !n in
            Node_heap.push h v ~key;
            let k = !model.(v) in
            if k < 0 || key < k then !model.(v) <- key
          | t when t < 18 -> pop ()
          | 18 -> drain ()
          | _ ->
            n := !n + (r mod 8);
            Node_heap.reset h !n;
            model := Array.make !n (-1))
        ops;
      drain ();
      !ok)

(* --- Trees as a declarative fixpoint --- *)

(* What a tree must be, computed without a priority queue: Bellman-Ford
   over the composite weights until nothing relaxes gives every node's
   composite distance, and its parent is the lowest-id enabled in-link
   from a reached node that achieves that distance.  Every way the
   library builds or updates a tree must land on exactly this, whatever
   order its heap settles equal keys in. *)
let fixpoint g ~weights root =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  dist.(Node.to_int root) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    Graph.iter_links g (fun l ->
        let w = weights.(Link.id_to_int l.Link.id) in
        let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
        if w >= 0 && dist.(u) <> max_int && dist.(u) + w < dist.(v) then begin
          dist.(v) <- dist.(u) + w;
          changed := true
        end)
  done;
  let parent = Array.make n (-1) in
  Graph.iter_links g (fun l ->
      let lid = Link.id_to_int l.Link.id in
      let w = weights.(lid) in
      let u = Node.to_int l.Link.src and v = Node.to_int l.Link.dst in
      if
        w >= 0 && dist.(u) <> max_int
        && dist.(u) + w = dist.(v)
        && (parent.(v) < 0 || lid < parent.(v))
      then parent.(v) <- lid);
  (dist, parent)

let matches_fixpoint g ~weights tree =
  let dist, parent = fixpoint g ~weights (Spf_tree.root tree) in
  let ok = ref true in
  for v = 0 to Graph.node_count g - 1 do
    if
      Spf_tree.comp_i tree v <> dist.(v)
      || Spf_tree.parent_id tree v <> parent.(v)
    then ok := false
  done;
  !ok

(* Dense ties: every enabled link costs 1, 2 or 3.  About one link in six
   is disabled. *)
let tied_weights rng g =
  Array.init (Graph.link_count g) (fun _ ->
      if Rng.int rng 6 = 0 then -1
      else Dijkstra.cost_weight (1 + Rng.int rng 3))

let prop_compute_into_fixpoint =
  QCheck2.Test.make ~name:"compute_into = fixpoint" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 101) in
      let s = Dijkstra.scratch () in
      let trees =
        Array.init (Graph.node_count g) (fun i ->
            Dijkstra.compute_flat_s s g ~weights:(tied_weights rng g)
              (Node.of_int i))
      in
      let ok = ref true in
      for _ = 1 to 6 do
        let weights = tied_weights rng g in
        Array.iter
          (fun tree ->
            Dijkstra.compute_into s g ~weights tree;
            if not (matches_fixpoint g ~weights tree) then ok := false)
          trees
      done;
      !ok)

(* Twenty repairs of one random tree, each after [round rng g s weights]
   has staged a batch of changes on [s] and applied them to [weights];
   every repaired tree must be the fixpoint of the table it ends at. *)
let repairs_match_fixpoint ~seed round =
  let g = random_graph seed in
  let rng = Rng.create (seed + 202) in
  let s = Spf_repair.scratch () in
  let weights = tied_weights rng g in
  let root = Node.of_int (Rng.int rng (Graph.node_count g)) in
  let tree = Dijkstra.compute_flat g ~weights root in
  let ok = ref true in
  for _ = 1 to 20 do
    round rng g s weights;
    ignore (Spf_repair.repair_staged s g ~tree ~weights);
    if not (matches_fixpoint g ~weights tree) then ok := false
  done;
  !ok

let random_weight rng =
  if Rng.int rng 4 = 0 then -1 else Dijkstra.cost_weight (1 + Rng.int rng 3)

let prop_repair_fixpoint =
  QCheck2.Test.make ~name:"repair_staged = fixpoint" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      repairs_match_fixpoint ~seed (fun rng g s weights ->
          (* One to five links move together: cost changes, outages and
             recoveries, each link staged once with its net change. *)
          let next = Array.copy weights in
          for _ = 0 to Rng.int rng 5 do
            let i = Rng.int rng (Graph.link_count g) in
            next.(i) <- random_weight rng
          done;
          Array.iteri
            (fun i w ->
              if w <> weights.(i) then begin
                Spf_repair.stage s (Link.id_of_int i) ~old_w:weights.(i)
                  ~new_w:w;
                weights.(i) <- w
              end)
            next))

let prop_repair_duplicate_fixpoint =
  QCheck2.Test.make ~name:"repair_staged with duplicate stages = fixpoint"
    ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      repairs_match_fixpoint ~seed (fun rng g s weights ->
          (* One to five links each pass through one to four weights,
             staged as they move, so a link can be staged several times
             and can end where it started. *)
          for _ = 0 to Rng.int rng 5 do
            let i = Rng.int rng (Graph.link_count g) in
            for _ = 0 to Rng.int rng 4 do
              let w = random_weight rng in
              if w <> weights.(i) then begin
                Spf_repair.stage s (Link.id_of_int i) ~old_w:weights.(i)
                  ~new_w:w;
                weights.(i) <- w
              end
            done
          done))

(* Drive an engine through [tables], checking every served tree after
   each refresh, and return how many refreshes took the full-sweep
   branch. *)
let engine_sweeps_matching_fixpoint g tables =
  let engine = Spf_engine.create g in
  let ok = ref true in
  List.iter
    (fun weights ->
      Spf_engine.refresh engine
        ~enabled:(fun l -> weights.(Link.id_to_int l) >= 0)
        ~cost:(fun l ->
          let w = weights.(Link.id_to_int l) in
          if w >= 0 then Spf_tree.composite_units w else 1);
      Graph.iter_nodes g (fun node ->
          if not (matches_fixpoint g ~weights (Spf_engine.tree engine node))
          then ok := false))
    tables;
  if !ok then Some (Spf_engine.stats engine).Spf_engine.full_sweeps else None

(* A table sequence from [first], each table made from the previous one
   by [step]. *)
let table_sequence first ~rounds step =
  let rec go acc k =
    if k = 0 then List.rev acc else go (step (List.hd acc) :: acc) (k - 1)
  in
  go [ first ] rounds

(* Another of the three tied costs than [w]'s, or a disabled link
   enabled. *)
let other_cost rng w =
  if w < 0 then Dijkstra.cost_weight (1 + Rng.int rng 3)
  else
    Dijkstra.cost_weight
      (1 + ((Spf_tree.composite_units w + Rng.int rng 2) mod 3))

let prop_engine_sweep_fixpoint =
  QCheck2.Test.make ~name:"engine full sweep = fixpoint" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 303) in
      (* Every link changes in every table, far over the full-sweep
         threshold. *)
      let tables =
        table_sequence (tied_weights rng g) ~rounds:6
          (Array.map (fun w ->
               if w >= 0 && Rng.int rng 6 = 0 then -1 else other_cost rng w))
      in
      engine_sweeps_matching_fixpoint g tables = Some (List.length tables))

let prop_engine_repair_fixpoint =
  QCheck2.Test.make ~name:"engine repair path = fixpoint" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let nl = Graph.link_count g in
      let rng = Rng.create (seed + 404) in
      (* One link changes per table; the graphs have at least eight links,
         so only the first refresh sweeps and every later one proves,
         reuses and repairs. *)
      let tables =
        table_sequence (tied_weights rng g) ~rounds:12 (fun prev ->
            let w = Array.copy prev in
            let i = Rng.int rng nl in
            w.(i) <-
              (if w.(i) >= 0 && Rng.int rng 4 = 0 then -1
               else other_cost rng w.(i));
            w)
      in
      engine_sweeps_matching_fixpoint g tables = Some 1)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_spf"
    [ ("node_heap", qsuite [ prop_node_heap_matches_model ]);
      ( "dijkstra",
        [ Alcotest.test_case "direct wins" `Quick test_dijkstra_direct_wins;
          Alcotest.test_case "reroutes" `Quick
            test_dijkstra_reroutes_around_expensive_link;
          Alcotest.test_case "deterministic ties" `Quick
            test_dijkstra_tie_break_neutral_deterministic;
          Alcotest.test_case "enabled" `Quick test_dijkstra_enabled;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "bad cost" `Quick test_dijkstra_rejects_bad_cost ]
        @ qsuite
            [ prop_dijkstra_optimality;
              prop_dijkstra_agrees_with_bellman_ford;
              prop_shortest_paths_hereditary;
              prop_compute_into_matches_flat ] );
      ( "spf_tree",
        [ Alcotest.test_case "paths and next hop" `Quick
            test_tree_paths_and_next_hop ] );
      ( "incremental",
        [ Alcotest.test_case "ignores irrelevant" `Quick
            test_incremental_ignores_irrelevant_increase;
          Alcotest.test_case "tracks change" `Quick test_incremental_tracks_change;
          Alcotest.test_case "skip rate (§2.2)" `Quick test_incremental_skip_rate ]
        @ qsuite [ prop_incremental_matches_full ] );
      ( "routing_table",
        [ Alcotest.test_case "traces" `Quick test_routing_table_traces ]
        @ qsuite [ prop_consistent_tables_are_loop_free ] );
      ("in_place_table", qsuite [ prop_refresh_matches_of_tree ]);
      ( "fixpoint",
        qsuite
          [ prop_compute_into_fixpoint;
            prop_repair_fixpoint;
            prop_repair_duplicate_fixpoint;
            prop_engine_sweep_fixpoint;
            prop_engine_repair_fixpoint ] ) ]
