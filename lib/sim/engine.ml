type t = {
  queue : Event_queue.t;
  mutable now : float;
  mutable processed : int;
}

let create () = { queue = Event_queue.create (); now = 0.; processed = 0 }

let now t = t.now

let schedule_at t ~at run =
  if at < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time:at run

let schedule t ~after run =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.now +. after) run

(* The drain loops read the head's time as an unboxed float and take the
   callback with the allocation-free pop, so processing an event allocates
   nothing here — only whatever the callback itself does. *)
let run_until t horizon =
  let q = t.queue in
  let continue_ = ref true in
  while !continue_ do
    if Event_queue.is_empty q || Event_queue.min_time q > horizon then
      continue_ := false
    else begin
      t.now <- Event_queue.min_time q;
      t.processed <- t.processed + 1;
      (Event_queue.pop_min q) ()
    end
  done;
  if horizon > t.now then t.now <- horizon

let events_processed t = t.processed

let pending t = Event_queue.length t.queue
