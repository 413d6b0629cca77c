(** traceroute over any host stack.

    Sends ICMP echo probes with increasing TTL (the Windows-style variant:
    the destination answers the final probe with an echo reply, while each
    intermediate virtual router returns Time-Exceeded from its own
    address).  Lets an experimenter see exactly which overlay path traffic
    takes — e.g. confirming Figure 7's reroute hop by hop. *)

type hop = {
  ttl : int;
  responder : Vini_net.Addr.t option;  (** None = probe timed out *)
  rtt_ms : float;
}

type t

val start :
  stack:Vini_phys.Ipstack.t ->
  dst:Vini_net.Addr.t ->
  unit ->
  t
(** One probe per TTL, sequentially, each timing out after 1 s; finishes
    when the destination answers or TTL 30 is exhausted. *)

val hops : t -> hop list
val reached : t -> bool
