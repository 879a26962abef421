(** Route-oscillation detection — the paper's headline pathology as a
    first-class measurement.

    Under the pre-revision D-SPF metric a loaded link's reported cost
    swings between extremes every routing period (§3.3, Fig 1): traffic
    chases the cheap link, makes it expensive, and stampedes back.  The
    detector watches each link's reported cost and counts {e direction
    flips} — a rise immediately followed by a fall or vice versa — inside
    a sliding time window.  A link whose flip count exceeds [max_flips]
    is flagged as oscillating.

    HN-SPF's bounded per-period movement and narrowed dynamic range keep
    flip counts below any reasonable threshold, so the detector separates
    the two metrics cleanly on the same workload (see
    [test_obs.ml]'s fixed-seed scenario assertion). *)

type t

val create : ?window_s:float -> ?max_flips:int -> links:int -> unit -> t
(** Track [links] links.  A link is flagged when more than [max_flips]
    direction flips (default 4) land within the trailing [window_s]
    seconds (default 120 — twelve routing periods).
    @raise Invalid_argument if [links < 0], [window_s <= 0] or
    [max_flips < 1]. *)

val observe :
  ?on_flag:(link:int -> time:float -> flips:int -> unit) ->
  t -> link:int -> time:float -> cost:int -> unit
(** Feed one link's reported cost, typically once per routing period.
    [on_flag] fires on the observation that tips the link from calm to
    flagged (once per calm→flagged transition, not per period). *)

val flips_in_window : t -> link:int -> int

val flagged : t -> int list
(** Links currently over threshold, ascending. *)

val ever_flagged : t -> int list
(** Links flagged at any point in the run, ascending — survives the
    window draining. *)

val flag_count : t -> int
(** Total calm→flagged transitions across all links. *)
