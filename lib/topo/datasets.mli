(** Built-in topologies used by the paper's evaluation.

    Delays are one-way propagation calibrated so that end-to-end RTTs match
    the values §5 reports (D.C.–Seattle 76 ms via the north path, 93 ms via
    the south path, Chicago–D.C. ≈24.4 ms on the PlanetLab microbenchmark
    path); OSPF weights are proportional to fiber distance, which is how
    Abilene's IGP was configured in 2006. *)

(** The 11-PoP Abilene backbone (Figure 7). *)
module Abilene : sig
  val topology : unit -> Graph.t

  val seattle : int
  val denver : int
  val kansas_city : int
  val washington : int
end

(** The 3-machine DETER/Emulab chain of §5.1.1: Src — Fwdr — Sink over
    gigabit Ethernet with negligible propagation delay. *)
module Deter : sig
  val topology : unit -> Graph.t

  val src : int
  val fwdr : int
  val sink : int
end

(** The 3 PlanetLab nodes co-located with Abilene PoPs used in §5.1.2:
    Chicago — New York — Washington D.C. (Figure 5). *)
module Planetlab3 : sig
  val topology : unit -> Graph.t

  val chicago : int
  val new_york : int
  val washington : int
end

(** National LambdaRail, VINI's other planned substrate ("we are working
    with the National Lambda Rail and Abilene Internet2 backbones to
    deploy VINI nodes", §1).  The 2006 NLR PacketNet footprint: 10 PoPs
    on the national fiber ring with a Denver–Chicago chord. *)
module Nlr : sig
  val topology : unit -> Graph.t

  val seattle : int
  val jacksonville : int
end

(** The synthetic shapes [ring], [star] and [grid] use 1 Gb/s, 2 ms
    links of weight 1. *)

val ring : n:int -> unit -> Graph.t
(** n nodes in a cycle. @raise Invalid_argument for n < 3. *)

val star : leaves:int -> unit -> Graph.t
(** Hub node 0 with [leaves] spokes. @raise Invalid_argument for leaves < 1. *)

val grid : rows:int -> cols:int -> unit -> Graph.t
(** rows x cols mesh, node id = row*cols + col.
    @raise Invalid_argument unless both dimensions are positive. *)

val waxman : rng:Vini_std.Rng.t -> n:int -> unit -> Graph.t
(** Waxman random topology on the unit square (alpha 0.4, beta 0.6, 1 Gb/s
    links); guaranteed connected (a random spanning tree is added first).
    Link delays follow Euclidean distance at 5 µs/km on a 4000 km square;
    weights are delay-derived. *)
