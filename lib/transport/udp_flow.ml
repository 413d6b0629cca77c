module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack

type receiver = {
  mutable received : int;
  mutable bytes : int;
  mutable max_seq : int;
  mutable out_of_order : int;
  jitter : Vini_std.Stats.Jitter.j;
  r_engine : Engine.t;
}

type receiver_stats = {
  received : int;
  lost : int;
  out_of_order : int;
  jitter_s : float;
  bytes : int;
  loss_pct : float;
}

let receiver ~stack ~port () =
  let r =
    {
      received = 0;
      bytes = 0;
      max_seq = -1;
      out_of_order = 0;
      jitter = Vini_std.Stats.Jitter.create ();
      r_engine = Ipstack.engine stack;
    }
  in
  Ipstack.bind_udp stack ~port (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Udp { body = Packet.Probe p; _ } ->
          r.received <- r.received + 1;
          r.bytes <- r.bytes + Packet.size pkt;
          if p.Packet.seq > r.max_seq then r.max_seq <- p.Packet.seq
          else r.out_of_order <- r.out_of_order + 1;
          Vini_std.Stats.Jitter.observe r.jitter
            ~sent:(Time.to_sec_f p.Packet.sent_ns)
            ~received:(Time.to_sec_f (Engine.now r.r_engine))
      | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ -> ());
  r

let receiver_stats r =
  let expected = r.max_seq + 1 in
  let lost = max 0 (expected - r.received) in
  {
    received = r.received;
    lost;
    out_of_order = r.out_of_order;
    jitter_s = Vini_std.Stats.Jitter.value r.jitter;
    bytes = r.bytes;
    loss_pct =
      (if expected = 0 then 0.0
       else 100.0 *. float_of_int lost /. float_of_int expected);
  }

type sender = { mutable seq : int; mutable running : bool }

let sender ~stack ~dst ~dst_port ~rate_bps
    ?(payload_bytes = Vini_net.Wire.default_udp_payload) ~duration () =
  if rate_bps <= 0.0 then invalid_arg "Udp_flow.sender: rate must be positive";
  let engine = Ipstack.engine stack in
  let s = { seq = 0; running = true } in
  let sport = Ipstack.alloc_ephemeral stack in
  let wire = payload_bytes + Vini_net.Wire.ipv4_header + Vini_net.Wire.udp_header in
  let interval = Time.of_sec_f (float_of_int (wire * 8) /. rate_bps) in
  let stop_at = Time.add (Engine.now engine) duration in
  let rec tick () =
    if s.running then begin
      if Time.compare (Engine.now engine) stop_at >= 0 then s.running <- false
      else begin
        let probe =
          Packet.Probe
            {
              Packet.flow = 0;
              seq = s.seq;
              sent_ns = Engine.now engine;
              pad = payload_bytes;
            }
        in
        s.seq <- s.seq + 1;
        Ipstack.send stack
          (Packet.udp ~src:(Ipstack.local_addr stack) ~dst ~sport
             ~dport:dst_port probe);
        ignore (Engine.after engine interval tick)
      end
    end
  in
  tick ();
  s

let sent s = s.seq
let sender_running s = s.running
