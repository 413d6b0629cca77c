type iface = {
  ifindex : int;
  ifname : string;
  local : Vini_net.Addr.t;
  remote : Vini_net.Addr.t;
  mutable cost : int;
  send : Vini_net.Packet.control -> size:int -> unit;
}

let make ~ifindex ~ifname ~local ~remote ~cost ~send =
  { ifindex; ifname; local; remote; cost; send }
