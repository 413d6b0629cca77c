(** Hierarchical token bucket for node egress bandwidth (§4.1.1).

    PlanetLab uses the Linux HTB queueing discipline to give each slice
    "fair share access to, and minimum rate guarantees for, outgoing
    network bandwidth".  This is that scheduler, two levels deep: a root
    rate (the node's NIC) and per-class assured/ceiling rates.

    Service order when the link frees up: backlogged classes still under
    their assured rate first (round-robin among them), then classes
    under their ceiling (borrowing spare capacity, round-robin), else
    wait for tokens.  Per-class queues are drop-tail. *)

type t
type cls

val create :
  engine:Vini_sim.Engine.t ->
  rate_bps:float ->
  out:(Vini_net.Packet.t -> unit) ->
  unit ->
  t
(** [rate_bps] is the root (NIC) rate; [out] receives packets as the
    scheduler releases them. *)

val add_class :
  t ->
  name:string ->
  ?assured_bps:float ->
  ?ceil_bps:float ->
  ?queue_bytes:int ->
  unit ->
  cls
(** Defaults: no assurance (0), ceiling = root rate, 128 KB queue.
    @raise Invalid_argument on duplicate names or assured > ceil. *)

val find_class : t -> string -> cls option

val default_class : t -> cls
(** Pre-created class for unclassified traffic (no assurance). *)

val enqueue : t -> cls -> Vini_net.Packet.t -> bool
(** [false] = class queue full, packet dropped (counted). *)

val class_drops : cls -> int
val class_sent_bytes : cls -> int
