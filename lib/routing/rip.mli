(** A RIPv2-style distance-vector protocol.

    One of the protocols the XORP suite offers an IIAS experimenter
    (§4.2.2); included so a VINI experiment can swap its control plane —
    the "tweak the routing algorithms" flexibility the paper's design
    question asks for.  Implements periodic full updates with split
    horizon and poisoned reverse, triggered updates, route timeout and
    garbage collection, and the 16-hop infinity. *)

type config = {
  update_interval : Vini_sim.Time.t;   (** classic 30 s *)
  timeout : Vini_sim.Time.t;           (** route expiry, classic 180 s *)
  gc : Vini_sim.Time.t;                (** hold as unreachable before deletion *)
  triggered_holddown : Vini_sim.Time.t;
  local_prefixes : Vini_net.Prefix.t list;
}

val scaled_config :
  scale:float -> local_prefixes:Vini_net.Prefix.t list -> config
(** Classic timers multiplied by [scale] (tests run at 1/10th speed). *)

val infinity_metric : int
(** 16 *)

type entry = { prefix : Vini_net.Prefix.t; metric : int }
type msg = Response of entry list
type Vini_net.Packet.control += Msg of msg

type t

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  config:config ->
  ifaces:Io.iface list ->
  rib:Rib.t ->
  t

val start : t -> unit
val receive : t -> ifindex:int -> Vini_net.Packet.control -> unit

val stop : t -> unit
(** Permanently silence the instance (process crash); restart uses a fresh
    instance. *)

val table : t -> (Vini_net.Prefix.t * int) list
(** (prefix, metric), reachable routes only. *)

val messages_sent : t -> int
