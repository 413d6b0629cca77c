(** Sample statistics for measurement reports.

    [t] accumulates float samples and answers the aggregate questions the
    paper's tables ask: mean, (sample) standard deviation, min/max, ping's
    [mdev] (mean absolute deviation from the mean), and percentiles.
    Samples are kept, so memory is O(n); measurement runs in this codebase
    collect at most a few hundred thousand samples. *)

type t

val create : unit -> t

val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** 0 on an empty accumulator. *)

val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 when n < 2. *)

val min : t -> float
val max : t -> float

val mdev : t -> float
(** Mean absolute deviation from the mean, as reported by [ping]. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], nearest-rank method. *)

val sum : t -> float

val merge : t -> t -> t
(** New accumulator holding both sample sets. *)

val pp_summary : Format.formatter -> t -> unit
(** "min/avg/max/mdev = a/b/c/d" ping-style line. *)

(** Interarrival jitter per RFC 1889 §A.8, as computed by iperf's UDP test:
    a smoothed estimate updated per packet from transit-time differences. *)
module Jitter : sig
  type j

  val create : unit -> j

  val observe : j -> sent:float -> received:float -> unit
  (** Feed one packet's send and receive timestamps (seconds). *)

  val value : j -> float
  (** Current jitter estimate in seconds. *)
end
