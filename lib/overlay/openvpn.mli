(** The OpenVPN opt-in client (§4.2.3).

    Runs on an external end host; gives its applications a tun-style
    {!Vini_phys.Ipstack.t} whose address comes from an IIAS ingress node's
    client pool.  Outgoing packets are encapsulated (with OpenVPN's framing
    overhead) and tunnelled over UDP to the ingress; return traffic is
    decapsulated and delivered back — the client-side half of the
    life-of-a-packet walkthrough in Figure 2. *)

type t

val connect :
  host:Vini_phys.Pnode.t ->
  server:Vini_net.Addr.t ->
  vaddr:Vini_net.Addr.t ->
  unit ->
  t
(** [host] is the client machine; [server] the ingress node's public
    address, reached on OpenVPN's port
    ({!Vini_net.Wire.openvpn_port}); [vaddr] the client's overlay
    address (allocated with [Iias.alloc_vpn_addr]).  A greeting packet
    registers the client with the ingress immediately. *)

val stack : t -> Vini_phys.Ipstack.t
(** The tun device: applications bind and send here with the overlay
    address. *)

val vaddr : t -> Vini_net.Addr.t

val wire_bytes : payload:int -> int
(** Physical-wire bytes for [payload] bytes of overlay traffic through an
    opt-in client: packetised at the Ethernet MTU, each packet paying the
    inner IPv4 header plus OpenVPN's outer encapsulation
    ({!Vini_net.Wire.openvpn_overhead}).  The scenario workload generator
    uses this to convert flow sizes into offered wire load, so flow-level
    and packet-level accounting of the same traffic agree. *)
