(** The BGP multiplexer (§3.4 "distinct external routing adjacencies",
    §6.1).

    External networks will not open one session per experiment, for
    stability and overhead reasons; instead VINI terminates a single eBGP
    adjacency per neighbouring domain and multiplexes it.  Each experiment
    peers with the mux, which

    - confines the experiment to its allocated sub-block of VINI's address
      space (announcements outside it are rejected and counted),
    - rate-limits the announcements an experiment may push towards the
      external world (a token bucket), and
    - redistributes externally learned routes to every experiment.

    Experiments cannot see or disturb each other's announcements (the
    mux's iBGP relay rules forbid client-to-client propagation). *)

type client_spec = {
  client_name : string;
  allowed : Vini_net.Prefix.t list;
  (** sub-blocks of the VINI allocation this experiment may announce *)
  max_announce_per_sec : float;
  burst : int;
}

type t

val create :
  engine:Vini_sim.Engine.t ->
  asn:int ->
  rid:int ->
  addr:Vini_net.Addr.t ->
  vini_block:Vini_net.Prefix.t ->
  t

val attach_external :
  t -> name:string -> send:(Vini_net.Packet.control -> size:int -> unit) ->
  Bgp.peer_id
(** The shared session to a router in a neighbouring domain. *)

val attach_client :
  t -> spec:client_spec -> send:(Vini_net.Packet.control -> size:int -> unit) ->
  Bgp.peer_id
(** A session to one experiment's BGP speaker. *)

val receive : t -> peer:Bgp.peer_id -> Vini_net.Packet.control -> unit
val start : t -> unit

val rejected : t -> client:string -> int
(** Announcements refused for being outside the client's allocation. *)

val rate_limited : t -> client:string -> int
(** Announcements refused by the rate limiter. *)
