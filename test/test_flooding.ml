(* Unit and property tests for the routing_flooding library. *)

open Routing_topology
module Sequence = Routing_flooding.Sequence
module Update = Routing_flooding.Update
module Flooder = Routing_flooding.Flooder
module Broadcast = Routing_flooding.Broadcast
module Control_plane = Routing_flooding.Control_plane
module Metric = Routing_metric.Metric
module Rng = Routing_stats.Rng

(* --- Sequence numbers --- *)

let test_sequence_basics () =
  let s0 = Sequence.zero in
  let s1 = Sequence.next s0 in
  Alcotest.(check bool) "next is newer" true (Sequence.newer s1 s0);
  Alcotest.(check bool) "not older" false (Sequence.newer s0 s1);
  Alcotest.(check bool) "not newer than self" false (Sequence.newer s0 s0)

let test_sequence_wraps () =
  let last = Sequence.of_int (Sequence.space - 1) in
  let wrapped = Sequence.next last in
  Alcotest.(check int) "wraps to zero" 0 (Sequence.to_int wrapped);
  Alcotest.(check bool) "wrapped is newer than last" true
    (Sequence.newer wrapped last)

let test_sequence_half_space () =
  let a = Sequence.of_int 0 in
  let b = Sequence.of_int ((Sequence.space / 2) - 1) in
  Alcotest.(check bool) "just under half: newer" true (Sequence.newer b a);
  let c = Sequence.of_int (Sequence.space / 2) in
  Alcotest.(check bool) "exactly half: ambiguous, not newer" false
    (Sequence.newer c a)

let prop_sequence_antisymmetric =
  QCheck2.Test.make ~name:"newer is antisymmetric" ~count:500
    QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 65535))
    (fun (a, b) ->
      let sa = Sequence.of_int a and sb = Sequence.of_int b in
      not (Sequence.newer sa sb && Sequence.newer sb sa))

(* --- Updates --- *)

let test_update_size () =
  let u =
    { Update.origin = Node.of_int 0;
      seq = Sequence.zero;
      costs = [ (Link.id_of_int 0, 30); (Link.id_of_int 2, 45) ] }
  in
  Alcotest.(check (float 1e-9)) "header + 2 links" (128. +. 96.)
    (Update.size_bits u)

(* --- Flooder / Broadcast --- *)

let ring5 () = Generators.ring 5

let make_flooders g =
  Array.init (Graph.node_count g) (fun i ->
      Flooder.create g ~owner:(Node.of_int i))

let test_flood_reaches_everyone () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  let o = Broadcast.flood g flooders u in
  Alcotest.(check int) "all nodes reached" 5 o.Broadcast.reached;
  Alcotest.(check bool) "some duplicates on a ring" true (o.Broadcast.duplicates > 0);
  Alcotest.(check bool) "bits accounted" true (o.Broadcast.bits > 0.)

let test_flood_dedup_on_replay () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  ignore (Broadcast.flood g flooders u);
  (* Replaying the same update must die immediately at every neighbor. *)
  let o2 = Broadcast.flood g flooders u in
  Alcotest.(check int) "replay reaches only the origin" 1 o2.Broadcast.reached

let test_flood_newer_supersedes () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u1 = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  ignore (Broadcast.flood g flooders u1);
  let u2 = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 50) ] in
  let o = Broadcast.flood g flooders u2 in
  Alcotest.(check int) "newer update floods fully" 5 o.Broadcast.reached;
  (match Flooder.last_seq flooders.(3) (Node.of_int 0) with
  | Some s -> Alcotest.(check int) "remote node tracks newest" (Sequence.to_int u2.Update.seq) (Sequence.to_int s)
  | None -> Alcotest.fail "expected sequence recorded")

let test_flood_never_reverses_arrival_link () =
  let g = ring5 () in
  let f = Flooder.create g ~owner:(Node.of_int 1) in
  (* Node 1's links: to node 2 and to node 0.  An update from node 0
     arriving over 0->1 must not be forwarded back over 1->0. *)
  let incoming =
    Option.get (Graph.find_link g ~src:(Node.of_int 0) ~dst:(Node.of_int 1))
  in
  let back =
    Option.get (Graph.find_link g ~src:(Node.of_int 1) ~dst:(Node.of_int 0))
  in
  let u =
    { Update.origin = Node.of_int 0; seq = Sequence.next Sequence.zero;
      costs = [] }
  in
  match Flooder.receive f ~arrived_on:(Some incoming.Link.id) u with
  | Flooder.Fresh forward ->
    Alcotest.(check bool) "not sent back" false
      (List.exists (Link.id_equal back.Link.id) forward);
    Alcotest.(check int) "forwarded to the other side" 1 (List.length forward)
  | Flooder.Duplicate -> Alcotest.fail "first sighting must be fresh"

let prop_flood_covers_random_graphs =
  QCheck2.Test.make ~name:"flood reaches every node on random graphs" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 20 in
      let g = Generators.ring_chord rng ~nodes ~chords:(Rng.int rng nodes) in
      let flooders = make_flooders g in
      let origin = Rng.int rng nodes in
      let u = Flooder.originate flooders.(origin) ~costs:[] in
      let o = Broadcast.flood g flooders u in
      o.Broadcast.reached = nodes
      (* Conservation: every transmission is either a fresh acceptance at
         its receiving end or a duplicate discard. *)
      && o.Broadcast.transmissions = o.Broadcast.reached - 1 + o.Broadcast.duplicates)

(* Reference model: the flood as a FIFO of individual transmissions, each
   receipt classified and its forward list built from the list adjacency —
   the straightforward form [Broadcast.flood] must agree with.  The
   per-node state is the model's own, so a fault shared by [Flooder] and
   [Broadcast] still shows. *)
type ref_node = {
  newest : int option array; (* per origin *)
  mutable accepted : int;
  mutable duplicates : int;
}

let ref_flood g nodes (u : Update.t) =
  let reached = ref 0 and transmissions = ref 0 and duplicates = ref 0 in
  let queue = Queue.create () in
  Queue.add (None, Node.to_int u.Update.origin) queue;
  while not (Queue.is_empty queue) do
    let arrived_on, i = Queue.pop queue in
    let st = nodes.(i) in
    let o = Node.to_int u.Update.origin in
    let fresh =
      match (arrived_on, st.newest.(o)) with
      | None, _ | Some _, None -> true
      | Some _, Some seen -> Sequence.newer u.Update.seq (Sequence.of_int seen)
    in
    if fresh then begin
      st.newest.(o) <- Some (Sequence.to_int u.Update.seq);
      st.accepted <- st.accepted + 1;
      incr reached;
      Graph.out_links g (Node.of_int i)
      |> List.iter (fun (l : Link.t) ->
             let back =
               match arrived_on with
               | Some in_link ->
                 Link.id_equal (Graph.reverse g l).Link.id in_link
               | None -> false
             in
             if not back then begin
               incr transmissions;
               Queue.add (Some l.Link.id, Node.to_int l.Link.dst) queue
             end)
    end
    else begin
      st.duplicates <- st.duplicates + 1;
      incr duplicates
    end
  done;
  { Broadcast.reached = !reached;
    transmissions = !transmissions;
    duplicates = !duplicates;
    bits = float_of_int !transmissions *. Update.size_bits u }

(* Random floods on random connected graphs, with sequence numbers drawn
   to be repeated, stale, fresh, far ahead and wrapping through zero:
   [Broadcast.flood] equals the reference on the whole outcome, and every
   flooder's counters and newest-seen table equal the model's. *)
let prop_flood_matches_reference =
  QCheck2.Test.make ~name:"flood = transmission-FIFO reference" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 20 in
      let g = Generators.ring_chord rng ~nodes:n ~chords:(Rng.int rng (2 * n)) in
      let flooders = make_flooders g in
      let model =
        Array.init n (fun _ ->
            { newest = Array.make n None; accepted = 0; duplicates = 0 })
      in
      (* Start near the top of the space so sequences wrap through 0. *)
      let last = Array.init n (fun _ -> Sequence.space - 1 - Rng.int rng 4) in
      let ok = ref true in
      for _ = 1 to 40 do
        let o = Rng.int rng n in
        let seq =
          match Rng.int rng 5 with
          | 0 -> last.(o) (* repeated *)
          | 1 -> last.(o) - 1 - Rng.int rng 3 (* stale *)
          | 2 -> last.(o) + (Sequence.space / 2) + Rng.int rng 100 (* far *)
          | _ -> last.(o) + 1 + Rng.int rng 3 (* fresh *)
        in
        let seq = Sequence.of_int ((seq + Sequence.space) mod Sequence.space) in
        last.(o) <- Sequence.to_int seq;
        let costs = List.init (Rng.int rng 3) (fun k -> (Link.id_of_int k, 10)) in
        let u = { Update.origin = Node.of_int o; seq; costs } in
        let got = Broadcast.flood g flooders u in
        let want = ref_flood g model u in
        if got <> want then ok := false
      done;
      Array.iteri
        (fun i f ->
          let m = model.(i) in
          if
            Flooder.accepted_count f <> m.accepted
            || Flooder.duplicate_count f <> m.duplicates
          then ok := false;
          for o = 0 to n - 1 do
            let seen =
              Option.map Sequence.to_int (Flooder.last_seq f (Node.of_int o))
            in
            if seen <> m.newest.(o) then ok := false
          done)
        flooders;
      !ok)

(* The October 1980 pathology: three sequence numbers forming a cycle
   under the half-space comparison keep every update alive forever. *)
let test_cyclic_sequences_never_die () =
  let third = Sequence.space / 3 in
  let a = Sequence.of_int 0 in
  let b = Sequence.of_int third in
  let c = Sequence.of_int (2 * third) in
  Alcotest.(check bool) "b newer than a" true (Sequence.newer b a);
  Alcotest.(check bool) "c newer than b" true (Sequence.newer c b);
  Alcotest.(check bool) "a newer than c (the wrap!)" true (Sequence.newer a c);
  let g = ring5 () in
  let flooders = make_flooders g in
  let update seq =
    { Update.origin = Node.of_int 0; seq; costs = [ (Link.id_of_int 0, 30) ] }
  in
  (* Every round of the three updates floods fully, forever. *)
  for _round = 1 to 4 do
    List.iter
      (fun seq ->
        let o = Broadcast.flood g flooders (update seq) in
        Alcotest.(check int) "still accepted everywhere" 5 o.Broadcast.reached)
      [ a; b; c ]
  done

let test_flood_all_accumulates () =
  let g = ring5 () in
  let flooders = make_flooders g in
  let u1 = Flooder.originate flooders.(0) ~costs:[ (Link.id_of_int 0, 42) ] in
  let u2 = Flooder.originate flooders.(2) ~costs:[ (Link.id_of_int 4, 60) ] in
  let o = Broadcast.flood_all g flooders [ u1; u2 ] in
  Alcotest.(check bool) "bits sum across floods" true
    (o.Broadcast.bits >= 2. *. Update.size_bits u1)

(* --- Control plane --- *)

(* A ring with chords under D-SPF: a 1-second delay moves every link far
   past the significance threshold, so each up link floods. *)
let control_setup () =
  let g = Generators.ring_chord (Rng.create 7) ~nodes:12 ~chords:8 in
  let nl = Graph.link_count g in
  (g, Control_plane.create (Metric.create Metric.D_spf g), Array.make nl 1.)

let test_control_plane_groups_by_origin () =
  let g, cp, delay = control_setup () in
  let nl = Graph.link_count g in
  (* Links 2i and 2i+1 are the ring trunk between nodes i and i+1, so in id
     order the ring's sources ascend.  Keep one ring direction in four
     (link 23 is node 0's) and every chord: origins are then first touched
     out of order, and some flood several links. *)
  let up = Array.init nl (fun i -> i mod 4 = 3 || i >= 24) in
  let updates = Control_plane.period cp ~up ~link_delay_s:delay in
  let metric = Control_plane.metric cp in
  let expected =
    List.filter_map
      (fun origin ->
        let costs =
          Graph.out_links g (Node.of_int origin)
          |> List.filter (fun (l : Link.t) -> up.(Link.id_to_int l.Link.id))
          |> List.map (fun (l : Link.t) -> Link.id_to_int l.Link.id)
          |> List.sort (fun a b -> compare b a)
          |> List.map (fun i -> (i, Metric.cost metric (Link.id_of_int i)))
        in
        if costs = [] then None else Some (origin, costs))
      (List.init (Graph.node_count g) Fun.id)
  in
  let got =
    List.map
      (fun (u : Update.t) ->
        ( Node.to_int u.Update.origin,
          List.map (fun (l, c) -> (Link.id_to_int l, c)) u.Update.costs ))
      updates
  in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "one update per origin, ascending; links descending" expected got;
  (* Instant-flooding accounting is exactly Broadcast.flood's. *)
  let reference = make_flooders g in
  List.iter
    (fun u ->
      let o = Control_plane.flood cp u in
      let r = Broadcast.flood g reference u in
      Alcotest.(check int) "transmissions" r.Broadcast.transmissions
        o.Broadcast.transmissions;
      Alcotest.(check (float 0.)) "bits" r.Broadcast.bits o.Broadcast.bits)
    updates

let test_control_plane_quiet_period () =
  let g, cp, delay = control_setup () in
  let up = Array.make (Graph.link_count g) true in
  Alcotest.(check bool) "first period floods" true
    (Control_plane.period cp ~up ~link_delay_s:delay <> []);
  (* The same delays again: no change, and the 50-second timer is far. *)
  let before = Gc.minor_words () in
  let updates = Control_plane.period cp ~up ~link_delay_s:delay in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "quiet period floods nothing" 0 (List.length updates);
  Alcotest.(check (float 0.)) "quiet period allocates nothing" 0. words

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing_flooding"
    [ ( "sequence",
        [ Alcotest.test_case "basics" `Quick test_sequence_basics;
          Alcotest.test_case "wraps" `Quick test_sequence_wraps;
          Alcotest.test_case "half space" `Quick test_sequence_half_space ]
        @ qsuite [ prop_sequence_antisymmetric ] );
      ("update", [ Alcotest.test_case "size" `Quick test_update_size ]);
      ( "flooding",
        [ Alcotest.test_case "reaches everyone" `Quick test_flood_reaches_everyone;
          Alcotest.test_case "dedup replay" `Quick test_flood_dedup_on_replay;
          Alcotest.test_case "newer supersedes" `Quick test_flood_newer_supersedes;
          Alcotest.test_case "no reverse forwarding" `Quick
            test_flood_never_reverses_arrival_link;
          Alcotest.test_case "flood_all" `Quick test_flood_all_accumulates;
          Alcotest.test_case "crash of 1980" `Quick test_cyclic_sequences_never_die ]
        @ qsuite
            [ prop_flood_covers_random_graphs; prop_flood_matches_reference ]
      );
      ( "control",
        [ Alcotest.test_case "one update per origin" `Quick
            test_control_plane_groups_by_origin;
          Alcotest.test_case "quiet period" `Quick
            test_control_plane_quiet_period ] ) ]
