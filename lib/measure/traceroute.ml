module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack

type hop = {
  ttl : int;
  responder : Vini_net.Addr.t option;
  rtt_ms : float;
}

type t = {
  stack : Ipstack.t;
  engine : Engine.t;
  dst : Vini_net.Addr.t;
  ident : int;
  mutable current_ttl : int;
  mutable sent_at : Time.t;
  mutable timeout_h : Engine.handle option;
  mutable hops_rev : hop list;
  mutable reached : bool;
  mutable finished : bool;
}

let next_ident = ref 0x6000
let max_ttl = 30
let probe_timeout = Time.sec 1

let finish t =
  if not t.finished then begin
    t.finished <- true;
    match t.timeout_h with Some h -> Engine.cancel h | None -> ()
  end

let rec probe t =
  if t.current_ttl > max_ttl || t.reached then finish t
  else begin
    t.sent_at <- Engine.now t.engine;
    let echo =
      Packet.Echo_request
        {
          Packet.ident = t.ident;
          icmp_seq = t.current_ttl;
          sent_ns = Engine.now t.engine;
          data_len = 32;
        }
    in
    Ipstack.send t.stack
      (Packet.icmp ~ttl:t.current_ttl ~src:(Ipstack.local_addr t.stack)
         ~dst:t.dst echo);
    t.timeout_h <-
      Some
        (Engine.after t.engine probe_timeout (fun () ->
             t.timeout_h <- None;
             record t None))
  end

and record t responder =
  let rtt_ms = Time.to_ms_f (Time.sub (Engine.now t.engine) t.sent_at) in
  t.hops_rev <- { ttl = t.current_ttl; responder; rtt_ms } :: t.hops_rev;
  (match t.timeout_h with Some h -> Engine.cancel h | None -> ());
  t.timeout_h <- None;
  t.current_ttl <- t.current_ttl + 1;
  probe t

let start ~stack ~dst () =
  incr next_ident;
  let t =
    {
      stack;
      engine = Ipstack.engine stack;
      dst;
      ident = !next_ident;
      current_ttl = 1;
      sent_at = Time.zero;
      timeout_h = None;
      hops_rev = [];
      reached = false;
      finished = false;
    }
  in
  Ipstack.set_icmp_handler stack (fun pkt ->
      if not t.finished then
        match pkt.Packet.proto with
        | Packet.Icmp (Packet.Time_exceeded o)
          when Vini_net.Addr.equal o.orig_dst t.dst && t.timeout_h <> None ->
            record t (Some pkt.Packet.src)
        | Packet.Icmp (Packet.Echo_reply e)
          when e.Packet.ident = t.ident && t.timeout_h <> None ->
            t.reached <- true;
            record t (Some pkt.Packet.src)
        | Packet.Icmp (Packet.Echo_request e) ->
            (* Remain a good citizen: answer inbound pings. *)
            Ipstack.send stack
              (Packet.icmp ~src:(Ipstack.local_addr stack) ~dst:pkt.Packet.src
                 (Packet.Echo_reply e))
        | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ -> ());
  probe t;
  t

let hops t = List.rev t.hops_rev
let reached t = t.reached
