open! Import

type outcome = {
  reached : int;
  transmissions : int;
  duplicates : int;
  bits : float;
}

(* The wave as a FIFO of accepted nodes over the CSR adjacency.  The
   transmission FIFO a flood unfolds as is the concatenation of each
   accepting node's forward list, in acceptance order; so receiving on a
   node's out-links contiguously, when that node leaves the queue,
   delivers every transmission in the same order.  Each node accepts an
   update at most once, which is what lets the queue live in two ints per
   flooder.  Returns [reached] in the low 32 bits and [transmissions]
   above them, so the kernel hands back both without boxing a pair. *)
let wave g flooders (u : Update.t) =
  let out_off = Graph.csr_out_off g in
  let out_link_ids = Graph.csr_out_link_ids g in
  let out_dst = Graph.csr_out_dst g in
  let origin = Node.to_int u.origin in
  let fo = Flooder.at flooders origin in
  ignore (Flooder.accept fo ~local:true u);
  Flooder.queue_join fo ~arrived:(-1);
  let head = ref origin and tail = ref origin in
  let reached = ref 1 and transmissions = ref 0 in
  while !head >= 0 do
    let fx = Flooder.at flooders !head in
    let arrived = Flooder.queue_arrived fx in
    for k = out_off.(!head) to out_off.(!head + 1) - 1 do
      let lid = out_link_ids.(k) in
      (* Never send an update back over the line it arrived on — the
         neighbour there has it by construction. *)
      if Link.id_to_int (Graph.link g (Link.id_of_int lid)).Link.reverse
         <> arrived
      then begin
        incr transmissions;
        let y = out_dst.(k) in
        let fy = Flooder.at flooders y in
        if Flooder.accept fy ~local:false u then begin
          incr reached;
          Flooder.queue_join fy ~arrived:lid;
          Flooder.queue_link (Flooder.at flooders !tail) ~next:y;
          tail := y
        end
      end
    done;
    head := Flooder.queue_next fx
  done;
  !reached lor (!transmissions lsl 32)
[@@hot_path]

let flood g flooders (u : Update.t) =
  let counts = wave g flooders u in
  let reached = counts land 0xFFFF_FFFF and transmissions = counts lsr 32 in
  (* Every transmission is either a fresh acceptance or a duplicate. *)
  { reached;
    transmissions;
    duplicates = transmissions - (reached - 1);
    bits = float_of_int transmissions *. Update.size_bits u }

let flood_all g flooders updates =
  List.fold_left
    (fun acc u ->
      let o = flood g flooders u in
      { reached = max acc.reached o.reached;
        transmissions = acc.transmissions + o.transmissions;
        duplicates = acc.duplicates + o.duplicates;
        bits = acc.bits +. o.bits })
    { reached = 0; transmissions = 0; duplicates = 0; bits = 0. }
    updates
