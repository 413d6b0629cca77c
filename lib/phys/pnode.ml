module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Span = Vini_sim.Span
module Packet = Vini_net.Packet

type t = {
  engine : Engine.t;
  rng : Vini_std.Rng.t;
  id : int;
  name : string;
  addr : Vini_net.Addr.t;
  cpu : Cpu.t;
  (* Kernel per-packet costs, scaled to this node's speed once at creation
     (the calibration constants and CPU speed never change). *)
  cost_forward : Time.t;
  cost_local : Time.t;
  stack : Ipstack.t;
  mutable tx : Packet.t -> unit;
  mutable kernel_busy : Time.t;
  mutable kernel_cpu : Time.t;
  mutable egress_htb : Htb.t option;
  mutable up : bool;
  mutable kills : (unit -> unit) list;
}

module Socket = struct
  type s = {
    node : t;
    sock_port : int;
    buf : Packet.t Vini_std.Fifo.t;
    handler : Packet.t -> unit;
  }

  let buffer s = s.buf
  let close s = Ipstack.unbind_udp s.node.stack ~port:s.sock_port

  let reopen s =
    Ipstack.bind_udp s.node.stack ~port:s.sock_port s.handler
end

let create ~engine ~rng ~id ~name ~addr ~cpu () =
  let rec node =
    lazy
      {
        engine;
        rng;
        id;
        name;
        addr;
        cpu;
        cost_forward =
          Cpu.scale_cost cpu
            (Time.of_sec_f (Calibration.kernel_forward_us *. 1e-6));
        cost_local =
          Cpu.scale_cost cpu
            (Time.of_sec_f (Calibration.kernel_local_us *. 1e-6));
        stack =
          Ipstack.create ~engine ~local_addr:addr
            ~tx:(fun pkt -> (Lazy.force node).tx pkt)
            ();
        tx = (fun _ -> ());
        kernel_busy = Time.zero;
        kernel_cpu = Time.zero;
        egress_htb = None;
        up = true;
        kills = [];
      }
  in
  Lazy.force node

let id t = t.id
let name t = t.name
let addr t = t.addr
let cpu t = t.cpu
let engine t = t.engine
let stack t = t.stack
let set_tx t tx = t.tx <- tx
let is_up t = t.up

let attach_process t ~kill = t.kills <- kill :: t.kills

let lifecycle_event t phase =
  let module Trace = Vini_sim.Trace in
  if Trace.on Trace.Category.Process_lifecycle then
    Trace.emit ~severity:Trace.Warn ~component:t.name
      (Trace.Process_lifecycle { phase; detail = "pnode" })

let crash t =
  if t.up then begin
    t.up <- false;
    (* Whatever the kernel had queued dies with the machine. *)
    t.kernel_busy <- Engine.now t.engine;
    lifecycle_event t "crash";
    List.iter (fun kill -> kill ()) t.kills
  end

let reboot t =
  if not t.up then begin
    t.up <- true;
    t.kernel_busy <- Engine.now t.engine;
    lifecycle_event t "reboot"
  end

let drop_down t pkt =
  let module Trace = Vini_sim.Trace in
  if Trace.on Trace.Category.Packet_drop then
    Trace.emit ~severity:Trace.Debug ~component:t.name
      (Trace.Packet_drop { reason = "node-down"; bytes = Packet.size pkt });
  if Span.on () then
    Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
      ~reason:"node-down" ~bytes:(Packet.size pkt) ()

let send_as t ~cls pkt =
  if not t.up then drop_down t pkt
  else
  match t.egress_htb with
  | None -> t.tx pkt
  | Some htb ->
      let c =
        match Htb.find_class htb cls with
        | Some c -> c
        | None -> Htb.default_class htb
      in
      ignore (Htb.enqueue htb c pkt)

let send t pkt =
  if not t.up then drop_down t pkt
  else
    match t.egress_htb with
    | None -> t.tx pkt
    | Some htb -> ignore (Htb.enqueue htb (Htb.default_class htb) pkt)

let enable_egress_htb t ~rate_bps =
  let htb = Htb.create ~engine:t.engine ~rate_bps ~out:(fun pkt -> t.tx pkt) () in
  t.egress_htb <- Some htb

let set_egress_class t ~name ?assured_bps () =
  match t.egress_htb with
  | None -> invalid_arg "Pnode.set_egress_class: no egress HTB enabled"
  | Some htb -> ignore (Htb.add_class htb ~name ?assured_bps ())

let egress_class_stats t ~name =
  match t.egress_htb with
  | None -> None
  | Some htb -> (
      match Htb.find_class htb name with
      | Some c -> Some (Htb.class_sent_bytes c, Htb.class_drops c)
      | None -> None)

(* The kernel is a FIFO server: arrival waits for prior kernel work. *)
let kernel_work ?pkt t cost k =
  let now = Engine.now t.engine in
  let start = Time.max now t.kernel_busy in
  let finish = Time.add start cost in
  t.kernel_busy <- finish;
  t.kernel_cpu <- Time.add t.kernel_cpu cost;
  (if Span.on () then
     match pkt with
     | None -> ()
     | Some p ->
         let comp = t.name ^ ".kernel" in
         if Time.compare start now > 0 then
           Span.hop ~pkt:p.Packet.id ~orig:p.Packet.orig ~component:comp
             Span.Queueing ~t0:now ~t1:start;
         Span.hop ~pkt:p.Packet.id ~orig:p.Packet.orig ~component:comp
           Span.Cpu_service ~t0:start ~t1:finish);
  (* Tail position: both callers invoke [kernel_work] as the last action
     of a NIC event, so the continuation may join the current breath. *)
  Engine.at_inline t.engine finish k

let nic_latency t =
  let base = Calibration.nic_latency_us in
  let jitter = Vini_std.Rng.float t.rng Calibration.nic_jitter_us in
  Time.of_sec_f ((base +. jitter) *. 1e-6)

let rx_overhead t pkt ~k =
  if not t.up then drop_down t pkt
  else
    let cost = t.cost_forward in
    (* Only called from the tail of a plink arrival event, so the NIC hop
       may join the current breath. *)
    Engine.after_inline t.engine (nic_latency t) (fun () ->
        if t.up then kernel_work ~pkt t cost k else drop_down t pkt)

let deliver_local ?(inline = false) t pkt =
  if not t.up then drop_down t pkt
  else
    let cost = t.cost_local in
    let cb () =
      if t.up then
        kernel_work ~pkt t cost (fun () -> Ipstack.deliver t.stack pkt)
      else drop_down t pkt
    in
    let lat = nic_latency t in
    (* [inline] asserts the caller is in tail position (a plink arrival or
       a kernel-work continuation); the local-send path reaches here
       mid-callback and must take a real calendar event. *)
    if inline then Engine.after_inline t.engine lat cb
    else ignore (Engine.after t.engine lat cb)

let kernel_cpu_time t = t.kernel_cpu

let open_udp_socket t ~port ?(rcvbuf_bytes = Calibration.udp_rcvbuf_bytes)
    ~on_packet () =
  let buf =
    Vini_std.Fifo.create ~max_bytes:rcvbuf_bytes ~size_of:Packet.size ()
  in
  let module Trace = Vini_sim.Trace in
  let handler pkt =
    if Vini_std.Fifo.push buf pkt then begin
      if Span.on () then Span.note_enqueue ~pkt:pkt.Packet.id;
      on_packet ()
    end
    else begin
      if Trace.on Trace.Category.Packet_drop then
        Trace.emit ~severity:Trace.Warn
          ~component:(Printf.sprintf "%s.sock:%d" t.name port)
          (Trace.Packet_drop
             { reason = "sock-overflow"; bytes = Packet.size pkt });
      if Span.on () then
        Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
          ~component:(Printf.sprintf "%s.sock:%d" t.name port)
          ~reason:"sock-overflow" ~bytes:(Packet.size pkt) ()
    end
  in
  let sock = { Socket.node = t; sock_port = port; buf; handler } in
  Ipstack.bind_udp t.stack ~port handler;
  sock
