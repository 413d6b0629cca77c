module Packet = Vini_net.Packet
module Addr = Vini_net.Addr
module Pnode = Vini_phys.Pnode
module Ipstack = Vini_phys.Ipstack
module Wire = Vini_net.Wire

type t = {
  host : Pnode.t;
  server : Addr.t;
  client_port : int;
  tun : Ipstack.t;
  client_vaddr : Addr.t;
}

let connect ~host ~server ~vaddr () =
  let host_stack = Pnode.stack host in
  let client_port = Ipstack.alloc_ephemeral host_stack in
  let rec t =
    lazy
      {
        host;
        server;
        client_port;
        tun =
          Ipstack.create
            ~engine:(Pnode.engine host)
            ~local_addr:vaddr
            ~tx:(fun inner ->
              let t = Lazy.force t in
              (* OpenVPN ingress: outer frame continues the inner
                 packet's causal tree. *)
              let outer =
                Packet.udp ~orig:inner.Packet.orig ~src:(Pnode.addr t.host)
                  ~dst:t.server ~sport:t.client_port ~dport:Wire.openvpn_port
                  (Packet.Vpn inner)
              in
              Pnode.send t.host outer)
            ();
        client_vaddr = vaddr;
      }
  in
  let t = Lazy.force t in
  (* Return traffic: decapsulate and hand to the tun stack. *)
  Ipstack.bind_udp host_stack ~port:client_port (fun outer ->
      match outer.Packet.proto with
      | Packet.Udp { body = Packet.Vpn inner; _ } -> Ipstack.deliver t.tun inner
      | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ -> ());
  (* Greet the ingress so it learns where this client lives: a packet to
     our own overlay address bounces off the ingress and back. *)
  Ipstack.send t.tun
    (Packet.udp ~src:vaddr ~dst:vaddr ~sport:client_port ~dport:Wire.openvpn_port
       (Packet.Probe { Packet.flow = 0; seq = 0; sent_ns = 0; pad = 16 }));
  t

let stack t = t.tun
let vaddr t = t.client_vaddr

(* The opt-in tunnel's wire cost for bulk traffic: the payload is
   packetised at the Ethernet MTU (inner IPv4 header included) and every
   packet pays the outer encapsulation.  Pure arithmetic on the same Wire
   constants the packet model charges, so flow-level accounting in the
   scenario workload agrees with what packet-level simulation would bill. *)
let wire_bytes ~payload =
  if payload <= 0 then 0
  else
    let mss = Wire.ethernet_mtu - Wire.openvpn_overhead - Wire.ipv4_header in
    let packets = (payload + mss - 1) / mss in
    payload + (packets * (Wire.ipv4_header + Wire.openvpn_overhead))
