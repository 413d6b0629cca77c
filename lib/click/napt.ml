module Packet = Vini_net.Packet
module Addr = Vini_net.Addr

type l4 = Proto_udp | Proto_tcp | Proto_icmp

type flow_key = {
  proto : l4;
  inner_addr : Addr.t;
  inner_port : int;   (* ICMP: identifier *)
  remote_addr : Addr.t;
  remote_port : int;  (* ICMP: 0 *)
}

type t = {
  public_addr : Addr.t;
  out_map : (flow_key, int) Hashtbl.t;        (* flow -> external port/id *)
  in_map : (l4 * int, flow_key) Hashtbl.t;    (* external port/id -> flow *)
  mutable next_port : int;
}

let create ~public_addr () =
  {
    public_addr;
    out_map = Hashtbl.create 64;
    in_map = Hashtbl.create 64;
    next_port = 61000;
  }

let alloc t key =
  match Hashtbl.find_opt t.out_map key with
  | Some p -> p
  | None ->
      let p = t.next_port in
      t.next_port <- t.next_port + 1;
      Hashtbl.replace t.out_map key p;
      Hashtbl.replace t.in_map (key.proto, p) key;
      p

let translate_out t (pkt : Packet.t) =
  match pkt.Packet.proto with
  | Packet.Udp u ->
      let key =
        {
          proto = Proto_udp;
          inner_addr = pkt.Packet.src;
          inner_port = u.Packet.usport;
          remote_addr = pkt.Packet.dst;
          remote_port = u.Packet.udport;
        }
      in
      let ext = alloc t key in
      Some
        (Packet.with_src
           (Packet.with_udp_ports pkt ~sport:ext ~dport:u.Packet.udport)
           t.public_addr)
  | Packet.Tcp seg ->
      let key =
        {
          proto = Proto_tcp;
          inner_addr = pkt.Packet.src;
          inner_port = seg.Packet.sport;
          remote_addr = pkt.Packet.dst;
          remote_port = seg.Packet.dport;
        }
      in
      let ext = alloc t key in
      Some
        (Packet.with_src
           (Packet.with_tcp_ports pkt ~sport:ext ~dport:seg.Packet.dport)
           t.public_addr)
  | Packet.Icmp (Packet.Echo_request e) ->
      let key =
        {
          proto = Proto_icmp;
          inner_addr = pkt.Packet.src;
          inner_port = e.Packet.ident;
          remote_addr = pkt.Packet.dst;
          remote_port = 0;
        }
      in
      let ext = alloc t key in
      let icmp = Packet.Echo_request { e with Packet.ident = ext } in
      Some
        (Packet.icmp ~ttl:pkt.Packet.ttl ~src:t.public_addr ~dst:pkt.Packet.dst
           icmp)
  | Packet.Icmp _ -> None

let translate_in t (pkt : Packet.t) =
  if not (Addr.equal pkt.Packet.dst t.public_addr) then None
  else
    match pkt.Packet.proto with
    | Packet.Udp u -> (
        match Hashtbl.find_opt t.in_map (Proto_udp, u.Packet.udport) with
        | Some key ->
            Some
              (Packet.with_dst
                 (Packet.with_udp_ports pkt ~sport:u.Packet.usport
                    ~dport:key.inner_port)
                 key.inner_addr)
        | None -> None)
    | Packet.Tcp seg -> (
        match Hashtbl.find_opt t.in_map (Proto_tcp, seg.Packet.dport) with
        | Some key ->
            Some
              (Packet.with_dst
                 (Packet.with_tcp_ports pkt ~sport:seg.Packet.sport
                    ~dport:key.inner_port)
                 key.inner_addr)
        | None -> None)
    | Packet.Icmp (Packet.Echo_reply e) -> (
        match Hashtbl.find_opt t.in_map (Proto_icmp, e.Packet.ident) with
        | Some key ->
            let icmp = Packet.Echo_reply { e with Packet.ident = key.inner_port } in
            Some
              (Packet.icmp ~ttl:pkt.Packet.ttl ~src:pkt.Packet.src
                 ~dst:key.inner_addr icmp)
        | None -> None)
    | Packet.Icmp _ -> None

let mappings t = Hashtbl.length t.out_map
