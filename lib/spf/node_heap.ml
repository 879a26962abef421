(* Binary min-heap in three int arrays: [node] and [key] are indexed by
   heap slot (first [size] live), [pos] by node id (-1 = not queued).
   Keys live beside their nodes rather than behind [pos], so sifting
   compares adjacent slots without an indirection.  Both sifts move a
   hole instead of swapping: each level costs one write per array. *)

type t = {
  mutable node : int array;
  mutable key : int array;
  mutable pos : int array;
  mutable size : int;
}

let create () = { node = [||]; key = [||]; pos = [||]; size = 0 }

(* Out of line: the growth path allocates, and [reset] is A0xx-gated. *)
let[@inline never] grow t n =
  t.node <- Array.make n 0;
  t.key <- Array.make n 0;
  t.pos <- Array.make n (-1);
  t.size <- 0

let reset t n =
  if Array.length t.pos < n then grow t n
  else begin
    for i = 0 to t.size - 1 do
      t.pos.(t.node.(i)) <- -1
    done;
    t.size <- 0
  end
[@@hot_path]

let is_empty t = t.size = 0

let place t i v k =
  t.node.(i) <- v;
  t.key.(i) <- k;
  t.pos.(v) <- i

(* Move the hole at slot [i] up past every parent with a larger key, then
   put [v] (key [k]) in it. *)
let rec sift_up t i v k =
  if i = 0 then place t 0 v k
  else begin
    let p = (i - 1) lsr 1 in
    let pk = t.key.(p) in
    if pk > k then begin
      place t i t.node.(p) pk;
      sift_up t p v k
    end
    else place t i v k
  end
[@@hot_path]

(* Move the hole at slot [i] down past every smaller child, then put [v]
   (key [k]) in it. *)
let rec sift_down t i v k =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i v k
  else begin
    let r = l + 1 in
    let c = if r < t.size && t.key.(r) < t.key.(l) then r else l in
    let ck = t.key.(c) in
    if ck < k then begin
      place t i t.node.(c) ck;
      sift_down t c v k
    end
    else place t i v k
  end
[@@hot_path]

let push t v ~key =
  let i = t.pos.(v) in
  if i < 0 then begin
    let s = t.size in
    t.size <- s + 1;
    sift_up t s v key
  end
  else if key < t.key.(i) then sift_up t i v key
[@@hot_path]

let[@inline never] empty () = invalid_arg "Node_heap: empty heap"

let pop_min t =
  if t.size = 0 then empty ();
  let v = t.node.(0) in
  t.pos.(v) <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.node.(last) t.key.(last);
  v
[@@hot_path]
