(** A minimal host IP stack: L4 demultiplexing over some transmit function.

    Both a physical node's kernel (public address) and an IIAS virtual
    host interface (the [tap0] device with a 10.0.0.0/8 address, §4.1.3)
    present this same surface to applications: bind a UDP or TCP port,
    receive matching packets, send packets.  ICMP echo requests are
    answered automatically, like a kernel, unless a handler overrides it —
    which is what lets ping measure both substrates uniformly. *)

type t

val create :
  engine:Vini_sim.Engine.t ->
  local_addr:Vini_net.Addr.t ->
  tx:(Vini_net.Packet.t -> unit) ->
  unit ->
  t

val engine : t -> Vini_sim.Engine.t
val local_addr : t -> Vini_net.Addr.t

val send : t -> Vini_net.Packet.t -> unit
(** Hand a packet to the interface for transmission. *)

val deliver : t -> Vini_net.Packet.t -> unit
(** Packet arriving from the network: demux to a bound port handler,
    auto-answer ICMP echo, or count an unmatched drop. *)

val bind_udp : t -> port:int -> (Vini_net.Packet.t -> unit) -> unit
(** @raise Invalid_argument when the port is already bound. *)

val bind_tcp : t -> port:int -> (Vini_net.Packet.t -> unit) -> unit
val unbind_udp : t -> port:int -> unit

val alloc_ephemeral : t -> int
(** A fresh high port (49152+), never reused within a run. *)

val set_icmp_handler : t -> (Vini_net.Packet.t -> unit) -> unit
(** Replace kernel echo behaviour (used by ping clients to catch replies). *)

val unmatched : t -> int
(** Packets that found no bound handler. *)
