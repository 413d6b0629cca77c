(** Stop-and-wait reliable, ordered delivery of control messages.

    Real BGP rides on TCP; our BGP sessions ride on this little ARQ layer
    instead, so they survive the packet loss that overlay links and busy
    Click processes inflict, while still failing (hold-timer expiry) when
    the path is truly dead.  Each side numbers messages, the receiver acks
    and delivers in order, the sender retransmits after an 800 ms
    timeout. *)

type Vini_net.Packet.control +=
  | Data of { seq : int; payload : Vini_net.Packet.control; psize : int }
  | Ack of int

type t

val create :
  engine:Vini_sim.Engine.t ->
  send:(Vini_net.Packet.control -> size:int -> unit) ->
  deliver:(Vini_net.Packet.control -> unit) ->
  unit ->
  t

val post : t -> Vini_net.Packet.control -> size:int -> unit
(** Queue a message for reliable transmission. *)

val receive : t -> Vini_net.Packet.control -> bool
(** Feed an incoming control message; [true] when it was an ARQ frame
    (consumed), [false] otherwise (not ours — caller should handle). *)

val stop : t -> unit
(** Cancel retransmissions and drop queued messages (session teardown). *)

val reset : t -> unit
(** [stop] plus sequence-number reset, for a fresh session over the same
    channel. *)

val retransmissions : t -> int
val in_flight : t -> int
