open! Import

type waiting = { packet : Packet.t; enqueued_s : float; priority : bool }

module Rng = Routing_stats.Rng

type drop_reason = Buffer_full | Line_down | Corrupted

type t = {
  engine : Engine.t;
  link : Link.t;
  buffer_packets : int;
  error_rate : float;
  rng : Rng.t option;
  fifo : waiting Queue.t;
  priority_fifo : waiting Queue.t;
  mutable busy : bool;
  mutable in_flight : Packet.t option;
  mutable up : bool;
  mutable epoch : int;  (* bumped on link-down: invalidates in-flight events *)
  on_arrival : Packet.t -> unit;
  on_measured : delay_s:float -> unit;
  on_drop : drop_reason -> Packet.t -> unit;
  mutable transmitted : int;
  mutable transmitted_bits : float;
  mutable dropped : int;
}

let default_buffer_packets = Queueing.buffer_capacity

let create ?(buffer_packets = default_buffer_packets) ?(error_rate = 0.) ?rng
    engine link ~on_arrival ~on_measured ~on_drop =
  if error_rate > 0. && rng = None then
    invalid_arg "Link_queue.create: error_rate needs an rng";
  { engine;
    link;
    buffer_packets;
    error_rate;
    rng;
    fifo = Queue.create ();
    priority_fifo = Queue.create ();
    busy = false;
    in_flight = None;
    up = true;
    epoch = 0;
    on_arrival;
    on_measured;
    on_drop;
    transmitted = 0;
    transmitted_bits = 0.;
    dropped = 0 }

let link t = t.link

let queue_length t =
  Queue.length t.fifo + Queue.length t.priority_fifo + if t.busy then 1 else 0

let rec start_transmission t =
  let next =
    match Queue.take_opt t.priority_fifo with
    | Some _ as w -> w
    | None -> Queue.take_opt t.fifo
  in
  match next with
  | None ->
    t.busy <- false;
    t.in_flight <- None
  | Some { packet; enqueued_s; priority } ->
    t.busy <- true;
    t.in_flight <- Some packet;
    let epoch = t.epoch in
    let tx = Link.transmission_s t.link ~bits:packet.Packet.bits in
    Engine.schedule t.engine ~after:tx (fun () ->
        if t.up && t.epoch = epoch then begin
          let now = Engine.now t.engine in
          t.transmitted <- t.transmitted + 1;
          t.transmitted_bits <- t.transmitted_bits +. packet.Packet.bits;
          (* The measured link delay: waiting + transmission, plus the
             tabled propagation the PSN adds (§2.2).  Control packets are
             not user traffic and stay out of the measurement. *)
          if not priority then
            t.on_measured
              ~delay_s:(now -. enqueued_s +. t.link.Link.propagation_s);
          let corrupted =
            match t.rng with
            | Some rng when t.error_rate > 0. -> Rng.float rng 1. < t.error_rate
            | _ -> false
          in
          if corrupted then t.on_drop Corrupted packet
          else begin
            packet.Packet.hops <- packet.Packet.hops + 1;
            Engine.schedule t.engine ~after:t.link.Link.propagation_s (fun () ->
                t.on_arrival packet)
          end;
          start_transmission t
        end)

let enqueue t packet =
  if (not t.up) || Queue.length t.fifo >= t.buffer_packets then begin
    t.dropped <- t.dropped + 1;
    t.on_drop (if t.up then Buffer_full else Line_down) packet
  end
  else begin
    Queue.add { packet; enqueued_s = Engine.now t.engine; priority = false }
      t.fifo;
    if not t.busy then start_transmission t
  end

let enqueue_priority t packet =
  if not t.up then begin
    t.dropped <- t.dropped + 1;
    t.on_drop Line_down packet
  end
  else begin
    Queue.add { packet; enqueued_s = Engine.now t.engine; priority = true }
      t.priority_fifo;
    if not t.busy then start_transmission t
  end

let set_up t up =
  if t.up && not up then begin
    (* Everything queued or mid-transmission is lost with the line. *)
    t.dropped <-
      t.dropped + Queue.length t.fifo + Queue.length t.priority_fifo
      + (if t.busy then 1 else 0);
    Queue.iter (fun w -> t.on_drop Line_down w.packet) t.fifo;
    Queue.iter (fun w -> t.on_drop Line_down w.packet) t.priority_fifo;
    Queue.clear t.fifo;
    Queue.clear t.priority_fifo;
    Option.iter (t.on_drop Line_down) t.in_flight;
    t.in_flight <- None;
    t.busy <- false;
    t.epoch <- t.epoch + 1
  end;
  t.up <- up

let transmitted_packets t = t.transmitted

let transmitted_bits t = t.transmitted_bits

let dropped_packets t = t.dropped
