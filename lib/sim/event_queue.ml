(* Binary min-heap as a structure of arrays: times live in an unboxed
   float array, sequence numbers and callbacks in parallel arrays.  The
   hot operations — [min_time] then [pop_min] — read and return unboxed
   floats and an existing closure, so draining an event costs zero
   allocations (the historical entry-record heap boxed an option and a
   tuple per pop). *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable len : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  { times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    runs = Array.make initial_capacity ignore;
    len = 0;
    next_seq = 0 }

let is_empty t = t.len = 0

let length t = t.len

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let run = t.runs.(i) in
  t.runs.(i) <- t.runs.(j);
  t.runs.(j) <- run

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let first = ref i in
  if left < t.len && before t left !first then first := left;
  if right < t.len && before t right !first then first := right;
  if !first <> i then begin
    swap t i !first;
    sift_down t !first
  end

let grow t =
  let capacity = 2 * Array.length t.times in
  let times = Array.make capacity 0. in
  let seqs = Array.make capacity 0 in
  let runs = Array.make capacity ignore in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.runs 0 runs 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

let add t ~time run =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  t.seqs.(t.len) <- t.next_seq;
  t.runs.(t.len) <- run;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)
[@@hot_path]

let min_time t = if t.len = 0 then Float.infinity else t.times.(0)


let pop_min t =
  if t.len = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let run = t.runs.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.runs.(0) <- t.runs.(t.len);
    sift_down t 0
  end;
  t.runs.(t.len) <- ignore;
  (* release the closure *)
  run
[@@hot_path]

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let run = pop_min t in
    Some (time, run)
  end

let clear t =
  Array.fill t.runs 0 t.len ignore;
  t.len <- 0;
  t.next_seq <- 0
