(** The interface a routing process sees.

    XORP in IIAS runs above UML network devices that map 1:1 onto UDP
    tunnels (§4.2.2); what the protocol observes is: a point-to-point
    interface with a local and a remote address, a cost, and a way to send
    a control message out of it.  The overlay layer supplies [send] (it
    injects the message into the local Click data plane) and calls the
    protocol back on receipt. *)

type iface = {
  ifindex : int;
  ifname : string;
  local : Vini_net.Addr.t;    (** our end of the point-to-point /30 *)
  remote : Vini_net.Addr.t;   (** neighbour's end *)
  mutable cost : int;
  (** IGP metric of the attached virtual link; mutable so an experimenter
      can retarget traffic by reconfiguration (the §7 planned-maintenance
      usage) — the owning protocol must re-originate afterwards. *)
  send : Vini_net.Packet.control -> size:int -> unit;
}

val make :
  ifindex:int ->
  ifname:string ->
  local:Vini_net.Addr.t ->
  remote:Vini_net.Addr.t ->
  cost:int ->
  send:(Vini_net.Packet.control -> size:int -> unit) ->
  iface
