(** Discrete-event simulation engine: a clock plus an event queue.

    The clock only moves when events fire; scheduling in the past is an
    error.  All of the packet simulator's behaviour is expressed as events
    scheduled here. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds; starts at 0. *)

val schedule : t -> after:float -> (unit -> unit) -> unit
(** Run a thunk [after] seconds from now.  @raise Invalid_argument on a
    negative delay. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument when [at] is before {!now}. *)

val run_until : t -> float -> unit
(** Fire all events with time ≤ the horizon, advancing the clock; the clock
    ends at the horizon even if the queue empties early. *)

val events_processed : t -> int

val pending : t -> int
