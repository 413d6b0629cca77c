module Packet = Vini_net.Packet
module Span = Vini_sim.Span

type t = {
  engine : Vini_sim.Engine.t;
  local_addr : Vini_net.Addr.t;
  span_comp : string; (* flight-recorder component, precomputed *)
  tx : Packet.t -> unit;
  udp : (int, Packet.t -> unit) Hashtbl.t;
  tcp : (int, Packet.t -> unit) Hashtbl.t;
  (* One-entry demux memo per protocol: a stack usually serves one hot
     flow, so the common delivery is a port compare instead of a
     hashtable probe (and the [Some] that [find_opt] allocates).
     Invalidated (port -1) on any bind/unbind. *)
  mutable udp_memo_port : int;
  mutable udp_memo : Packet.t -> unit;
  mutable tcp_memo_port : int;
  mutable tcp_memo : Packet.t -> unit;
  mutable icmp : (Packet.t -> unit) option;
  mutable next_ephemeral : int;
  mutable unmatched : int;
}

let create ~engine ~local_addr ~tx () =
  {
    engine;
    local_addr;
    span_comp = "ip." ^ Vini_net.Addr.to_string local_addr;
    tx;
    udp = Hashtbl.create 8;
    tcp = Hashtbl.create 8;
    udp_memo_port = -1;
    udp_memo = ignore;
    tcp_memo_port = -1;
    tcp_memo = ignore;
    icmp = None;
    next_ephemeral = 49152;
    unmatched = 0;
  }

let engine t = t.engine
let local_addr t = t.local_addr

(* Every datagram the stack sources passes through here: the natural place
   to open its flight-recorder tree.  A packet re-originating an inherited
   provenance (ICMP errors, encapsulated frames injected back into a
   stack) gets a second Origin on the same tree, which the aggregator
   treats as a continuation, not a new root. *)
let send t pkt =
  if Span.on () then
    Span.origin ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
      ~bytes:(Packet.size pkt) ~component:t.span_comp ();
  t.tx pkt

let bind tbl which ~port handler =
  if Hashtbl.mem tbl port then
    invalid_arg (Printf.sprintf "Ipstack.bind_%s: port %d in use" which port);
  Hashtbl.replace tbl port handler

let invalidate_udp_memo t =
  t.udp_memo_port <- -1;
  t.udp_memo <- ignore

let invalidate_tcp_memo t =
  t.tcp_memo_port <- -1;
  t.tcp_memo <- ignore

let bind_udp t ~port handler =
  bind t.udp "udp" ~port handler;
  invalidate_udp_memo t

let bind_tcp t ~port handler =
  bind t.tcp "tcp" ~port handler;
  invalidate_tcp_memo t

let unbind_udp t ~port =
  Hashtbl.remove t.udp port;
  invalidate_udp_memo t

let alloc_ephemeral t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- t.next_ephemeral + 1;
  p

let set_icmp_handler t h = t.icmp <- Some h

let echo_reply t (pkt : Packet.t) e =
  (* The reply continues the request's causal tree. *)
  let reply =
    Packet.icmp ~orig:pkt.Packet.orig ~src:t.local_addr ~dst:pkt.Packet.src
      (Packet.Echo_reply e)
  in
  send t reply

let deliver t (pkt : Packet.t) =
  if Span.on () then
    Span.instant ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
      ~component:t.span_comp Span.Proto_processing;
  match pkt.Packet.proto with
  | Packet.Udp u ->
      let port = u.Packet.udport in
      if port = t.udp_memo_port then t.udp_memo pkt
      else (
        match Hashtbl.find_opt t.udp port with
        | Some h ->
            t.udp_memo_port <- port;
            t.udp_memo <- h;
            h pkt
        | None -> t.unmatched <- t.unmatched + 1)
  | Packet.Tcp seg ->
      let port = seg.Packet.dport in
      if port = t.tcp_memo_port then t.tcp_memo pkt
      else (
        match Hashtbl.find_opt t.tcp port with
        | Some h ->
            t.tcp_memo_port <- port;
            t.tcp_memo <- h;
            h pkt
        | None -> t.unmatched <- t.unmatched + 1)
  | Packet.Icmp icmp -> (
      match t.icmp with
      | Some h -> h pkt
      | None -> (
          match icmp with
          | Packet.Echo_request e -> echo_reply t pkt e
          | Packet.Echo_reply _ | Packet.Time_exceeded _
          | Packet.Dest_unreachable _ ->
              t.unmatched <- t.unmatched + 1))

let unmatched t = t.unmatched
