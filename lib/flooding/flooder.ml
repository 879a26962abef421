open! Import

type t = {
  graph : Graph.t;
  owner : Node.t;
  newest : int array; (* per origin node: newest sequence accepted, -1 none *)
  mutable own_seq : Sequence.t;
  mutable accepted : int;
  mutable duplicates : int;
  (* {!Broadcast}'s node queue, threaded through the flooders: the next
     node in the queue ([-1] at the tail) and the link this node accepted
     the update over ([-1] at the origin). *)
  mutable q_next : int;
  mutable q_arrived : int;
}

let create graph ~owner =
  { graph;
    owner;
    newest = Array.make (Graph.node_count graph) (-1);
    own_seq = Sequence.zero;
    accepted = 0;
    duplicates = 0;
    q_next = -1;
    q_arrived = -1 }

let owner t = t.owner

let note_seen t (u : Update.t) =
  t.newest.(Node.to_int u.origin) <- Sequence.to_int u.seq

let originate t ~costs =
  t.own_seq <- Sequence.next t.own_seq;
  let u = { Update.origin = t.owner; seq = t.own_seq; costs } in
  note_seen t u;
  u

(* A local injection is always accepted: the originator has necessarily
   already recorded its own sequence number in [originate]. *)
let accept t ~local (u : Update.t) =
  let seen = t.newest.(Node.to_int u.origin) in
  if local || seen < 0 || Sequence.newer u.seq (Sequence.of_int seen) then begin
    note_seen t u;
    t.accepted <- t.accepted + 1;
    true
  end
  else begin
    t.duplicates <- t.duplicates + 1;
    false
  end
[@@hot_path]

type verdict = Fresh of Link.id list | Duplicate

let receive t ~arrived_on (u : Update.t) =
  let local = Option.is_none arrived_on in
  if accept t ~local u then
    Fresh
      (Graph.out_links t.graph t.owner
      |> List.filter_map (fun (l : Link.t) ->
             (* Never send an update back over the line it arrived on —
                the neighbour there has it by construction. *)
             let came_back =
               match arrived_on with
               | Some in_link ->
                 Link.id_equal (Graph.reverse t.graph l).Link.id in_link
               | None -> false
             in
             if came_back then None else Some l.Link.id))
  else Duplicate

let accepted_count t = t.accepted

let duplicate_count t = t.duplicates

let last_seq t origin =
  let seen = t.newest.(Node.to_int origin) in
  if seen < 0 then None else Some (Sequence.of_int seen)

let at flooders i = flooders.(i)

let queue_join t ~arrived =
  t.q_next <- -1;
  t.q_arrived <- arrived

let queue_link t ~next = t.q_next <- next

let queue_next t = t.q_next

let queue_arrived t = t.q_arrived
