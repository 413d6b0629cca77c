(** Log-scale bucketed histogram for latency-shaped distributions.

    O(1) memory per histogram (fixed bucket array, 20 buckets per decade),
    O(1) insertion, and approximate quantiles with < ~6% relative error —
    the always-on companion to {!Stats}, which is exact but keeps every
    sample.  Non-positive samples are counted in a dedicated bucket so a
    histogram of time deltas survives clock oddities. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool
val sum : t -> float
val mean : t -> float

val min : t -> float
(** Exact observed minimum; 0 on an empty histogram. *)

val max : t -> float
(** Exact observed maximum; 0 on an empty histogram. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]]: nearest-rank over the buckets,
    reporting the bucket's geometric midpoint clamped to the observed
    min/max. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lower, upper, count)], ascending.  A leading
    [(neg_infinity, 0., n)] entry holds non-positive samples, if any. *)

val merge : t -> t -> t
val clear : t -> unit
