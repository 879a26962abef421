(** Deterministic pseudo-random numbers for reproducible experiments.

    All stochastic choices in the repository (topology generation, traffic
    matrices, Poisson arrivals) draw from a [t] seeded explicitly, so every
    experiment in EXPERIMENTS.md is reproducible bit-for-bit.  The generator
    is splitmix64: tiny state, good statistical quality, trivially
    splittable. *)

type t

val create : int -> t
(** [create seed] builds an independent generator. *)

val split : t -> t
(** A generator statistically independent of the parent; the parent
    advances. *)

val copy : t -> t
(** A snapshot that will replay the same stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float

val exponential : t -> mean:float -> float
(** Exponentially distributed, for Poisson inter-arrival times.
    @raise Invalid_argument if [mean <= 0]. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count (Knuth's method below mean 30, normal
    approximation above for speed). *)

val normal : t -> float
(** Standard normal draw (Box–Muller; one uniform pair per call). *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto-distributed with tail exponent [alpha] and scale [x_min]
    (so every draw is at least [x_min]) — heavy-tailed flow sizes.
    @raise Invalid_argument if [alpha <= 0] or [x_min <= 0]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal draw [exp (mu + sigma·Z)].
    @raise Invalid_argument if [sigma < 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
