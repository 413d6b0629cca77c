(** A physical point-to-point link.

    Each direction is an independent transmitter with a drop-tail byte
    queue, a serialisation rate, a propagation delay, and an optional
    random loss rate.  Links can be administratively failed and restored
    — physical failure, as opposed to the virtual-link failures IIAS
    injects inside Click. *)

type t

type stats = {
  sent : int;
  delivered : int;
  queue_drops : int;
  loss_drops : int;
  down_drops : int;
  bg_drops : int;  (** drops charged to fluid background pressure *)
  bytes_sent : int;
}

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  ?name:string ->
  bandwidth_bps:float ->
  delay:Vini_sim.Time.t ->
  ?loss:float ->
  ?queue_bytes:int ->
  unit ->
  t
(** [?name] (default ["plink"]) labels this link's flight-recorder spans
    — queueing/serialisation/propagation hops and link-drop forensics
    ({!Vini_sim.Span}). *)

val transmit : t -> dir:int -> Vini_net.Packet.t -> deliver:(Vini_net.Packet.t -> unit) -> unit
(** Queue a packet on direction [dir] (0 or 1).  [deliver] fires at the
    receiving end after serialisation + propagation, unless the packet is
    dropped (full queue, random loss, or link down). *)

val set_up : t -> bool -> unit
val is_up : t -> bool

val set_background : t -> dir:int -> delay:Vini_sim.Time.t -> loss:float -> unit
(** Fold fluid background pressure into direction [dir]: every subsequent
    packet sees [delay] of extra queueing (cross-traffic ahead of it) and
    an extra [loss] drop probability (the chance it lands on a queue the
    background already filled).  Set by the scenario {!Vini_scenario}
    fluid model on its coarse tick, an ordinary engine event, so every
    packet transmitted after the tick sees the update.  Both default to
    zero, in which case the transmit path takes no extra RNG draw and is
    byte-identical to a run without a fluid model.
    @raise Invalid_argument unless [loss] is in [\[0,1\]] and [delay >= 0]. *)

val stats : t -> dir:int -> stats
val bandwidth_bps : t -> float
