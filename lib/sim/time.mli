(** Simulation time as native-int nanoseconds.

    Integer time keeps event ordering exact: two events scheduled from the
    same float expression can never be reordered by rounding, which matters
    for reproducibility of convergence experiments.

    The representation is a native [int], not an [int64]: a 63-bit int
    holds 146 years of nanoseconds, and an immediate int keeps every
    timestamp unboxed — [add]/[sub]/[compare] on the hot path allocate
    nothing, where int64 arithmetic boxes its result.  Rounding semantics
    of {!of_sec_f}/{!of_ms_f} are unchanged from the int64 version
    (round-to-nearest on the float, then truncate to integer), so seeded
    schedules are numerically identical. *)

type t = int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_ns_f : float -> t
(** Round a float count of nanoseconds to the nearest whole one, halves
    away from zero: [int_of_float (Float.round x)], without calling libm
    below 2^52. *)

val of_sec_f : float -> t
(** Round a float duration in seconds to whole nanoseconds
    ([of_ns_f (s *. 1e9)]). *)

val to_sec_f : t -> float
val to_ms_f : t -> float
val of_ms_f : float -> t
(** [of_ns_f (m *. 1e6)]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> int -> t

val max_value : t
(** The largest representable instant ([max_int] ns, ~146 years).  Used as
    an "unreachable" sentinel by window computations. *)

val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints seconds with microsecond precision, e.g. ["12.345678s"]. *)
