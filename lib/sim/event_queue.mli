(** Time-ordered event queue for the discrete-event engine.

    Events at equal times fire in insertion order (a strict FIFO tie-break),
    which keeps simulations deterministic.

    Stored as a structure of arrays so the drain loop allocates nothing:
    peek the head's time with {!min_time} (an unboxed float), then take its
    callback with {!pop_min}. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val add : t -> time:float -> (unit -> unit) -> unit
(** @raise Invalid_argument on NaN time. *)

val min_time : t -> float
(** Time of the earliest event; [infinity] when empty.  Never allocates. *)

val pop_min : t -> unit -> unit
(** Remove the earliest event (FIFO among ties) and return its callback
    without boxing anything.  Read {!min_time} first if the event's time
    is needed.
    @raise Invalid_argument on an empty queue. *)

val pop : t -> (float * (unit -> unit)) option
(** Allocating convenience wrapper over {!min_time} + {!pop_min}. *)

val clear : t -> unit
