type link_state = {
  mutable last_cost : int;
  mutable seen : bool;
  mutable direction : int; (* -1, 0, +1: sign of the last cost change *)
  mutable flips : float list; (* flip times, newest first, within window *)
  mutable flagged : bool; (* currently over threshold *)
  mutable ever : bool;
}

type t = {
  window_s : float;
  max_flips : int;
  states : link_state array;
  mutable flag_count : int;
}

let create ?(window_s = 120.) ?(max_flips = 4) ~links () =
  if links < 0 then invalid_arg "Oscillation.create: links < 0";
  if window_s <= 0. then invalid_arg "Oscillation.create: window_s <= 0";
  if max_flips < 1 then invalid_arg "Oscillation.create: max_flips < 1";
  { window_s;
    max_flips;
    states =
      Array.init links (fun _ ->
          { last_cost = 0;
            seen = false;
            direction = 0;
            flips = [];
            flagged = false;
            ever = false });
    flag_count = 0 }

(* Newest-first: keep the prefix inside the window.  Top-level so quiet
   observations stay allocation-free — a local [let rec] would close over
   the horizon and be allocated on every call, flips or not. *)
let rec keep_within horizon = function
  | x :: rest when x >= horizon -> x :: keep_within horizon rest
  | _ -> []

let[@inline] prune t s ~time =
  match s.flips with
  | [] -> ()
  | oldest_might_expire ->
      s.flips <- keep_within (time -. t.window_s) oldest_might_expire

let[@inline] observe ?on_flag t ~link ~time ~cost =
  let s = t.states.(link) in
  prune t s ~time;
  (if not s.seen then begin
     s.seen <- true;
     s.last_cost <- cost
   end
   else if cost <> s.last_cost then begin
     let direction = if cost > s.last_cost then 1 else -1 in
     if s.direction <> 0 && direction <> s.direction then
       s.flips <- time :: s.flips;
     s.direction <- direction;
     s.last_cost <- cost
   end);
  let n = List.length s.flips in
  if n > t.max_flips then begin
    if not s.flagged then begin
      s.flagged <- true;
      s.ever <- true;
      t.flag_count <- t.flag_count + 1;
      match on_flag with
      | Some f -> f ~link ~time ~flips:n
      | None -> ()
    end
  end
  else s.flagged <- false

let flips_in_window t ~link = List.length t.states.(link).flips

let collect t pred =
  let out = ref [] in
  for i = Array.length t.states - 1 downto 0 do
    if pred t.states.(i) then out := i :: !out
  done;
  !out

let flagged t = collect t (fun s -> s.flagged)

let ever_flagged t = collect t (fun s -> s.ever)

let flag_count t = t.flag_count
