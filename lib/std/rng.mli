(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that a run is reproducible bit-for-bit from its seed.  The
    generator is SplitMix64: fast, statistically sound for simulation
    purposes, and trivially splittable so independent subsystems can own
    independent streams that do not interleave. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian by Box–Muller (one fresh draw per call). *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto draw with minimum [scale] and tail index [shape]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

