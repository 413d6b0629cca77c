module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Ipstack = Vini_phys.Ipstack
module Tcp = Vini_transport.Tcp
module Udp_flow = Vini_transport.Udp_flow

type tcp_run = {
  engine : Engine.t;
  mutable conns : Tcp.t list;
  mutable accepted : Tcp.t list;
  mutable measured_bytes : int;
  mutable measuring : bool;
  duration : Time.t;
}

let tcp ~client ~server ?(streams = 20) ?(rwnd = Tcp.default_rwnd)
    ?(warmup = Time.sec 2) ~start ~duration () =
  let port = 5001 in
  let engine = Ipstack.engine client in
  let run =
    {
      engine;
      conns = [];
      accepted = [];
      measured_bytes = 0;
      measuring = false;
      duration;
    }
  in
  Tcp.listen ~stack:server ~port ~rwnd
    ~on_accept:(fun conn ->
      run.accepted <- conn :: run.accepted;
      Tcp.on_deliver conn (fun n ->
          if run.measuring then run.measured_bytes <- run.measured_bytes + n))
    ();
  ignore
    (Engine.at engine start (fun () ->
         for _ = 1 to streams do
           let conn =
             Tcp.connect ~stack:client ~dst:(Ipstack.local_addr server)
               ~dst_port:port ~rwnd ()
           in
           Tcp.send_forever conn;
           run.conns <- conn :: run.conns
         done));
  ignore
    (Engine.at engine (Time.add start warmup) (fun () -> run.measuring <- true));
  ignore
    (Engine.at engine
       (Time.add (Time.add start warmup) duration)
       (fun () -> run.measuring <- false));
  run

let tcp_mbps run =
  float_of_int (run.measured_bytes * 8) /. Time.to_sec_f run.duration /. 1e6

let tcp_total_delivered run = run.measured_bytes

let tcp_retransmits run =
  List.fold_left (fun acc c -> acc + (Tcp.stats c).Tcp.retransmits) 0 run.conns

let tcp_timeouts run =
  List.fold_left (fun acc c -> acc + (Tcp.stats c).Tcp.timeouts) 0 run.conns

type udp_run = { receiver : Udp_flow.receiver }

let udp ~client ~server ~rate_bps ~start ~duration () =
  let engine = Ipstack.engine client and port = 5001 in
  let receiver = Udp_flow.receiver ~stack:server ~port () in
  ignore
    (Engine.at engine start (fun () ->
         ignore
           (Udp_flow.sender ~stack:client ~dst:(Ipstack.local_addr server)
              ~dst_port:port ~rate_bps ~duration ())));
  { receiver }

let udp_loss_pct run = (Udp_flow.receiver_stats run.receiver).Udp_flow.loss_pct

let udp_jitter_ms run =
  (Udp_flow.receiver_stats run.receiver).Udp_flow.jitter_s *. 1e3

let udp_received run = (Udp_flow.receiver_stats run.receiver).Udp_flow.received
