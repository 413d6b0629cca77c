module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Span = Vini_sim.Span
module Packet = Vini_net.Packet

type stats = {
  sent : int;
  delivered : int;
  queue_drops : int;
  loss_drops : int;
  down_drops : int;
  bg_drops : int;
  bytes_sent : int;
}

type dir_state = {
  mutable busy_until : Time.t;
  mutable sent : int;
  mutable delivered : int;
  mutable queue_drops : int;
  mutable loss_drops : int;
  mutable down_drops : int;
  mutable bg_drops : int;
  mutable bytes_sent : int;
  (* Background pressure from the scenario fluid model: extra queueing
     delay and loss probability folded in by the coarse tick.  Zero by
     default, in which case transmit takes no extra RNG draw — a run
     without a fluid model is bit-for-bit the run before this field
     existed. *)
  mutable bg_delay : Time.t;
  mutable bg_loss : float;
}

type t = {
  engine : Engine.t;
  rng : Vini_std.Rng.t;
  name : string;
  bandwidth_bps : float;
  delay : Time.t;
  loss : float;
  queue_bytes : int;
  dirs : dir_state array;
  mutable up : bool;
}

let fresh_dir () =
  {
    busy_until = Time.zero;
    sent = 0;
    delivered = 0;
    queue_drops = 0;
    loss_drops = 0;
    down_drops = 0;
    bg_drops = 0;
    bytes_sent = 0;
    bg_delay = Time.zero;
    bg_loss = 0.0;
  }

let create ~engine ~rng ?(name = "plink") ~bandwidth_bps ~delay ?(loss = 0.0)
    ?(queue_bytes = Calibration.link_queue_bytes) () =
  if bandwidth_bps <= 0.0 then invalid_arg "Plink.create: bandwidth";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Plink.create: loss";
  {
    engine;
    rng;
    name;
    bandwidth_bps;
    delay;
    loss;
    queue_bytes;
    dirs = [| fresh_dir (); fresh_dir () |];
    up = true;
  }

let serialization t size =
  Time.of_sec_f (float_of_int (size * 8) /. t.bandwidth_bps)

(* Backlog is tracked virtually: [busy_until - now] is serialisation time
   already committed, which maps 1:1 onto queued bytes. *)
let backlog_bytes t d =
  let now = Engine.now t.engine in
  if Time.compare d.busy_until now <= 0 then 0
  else
    int_of_float
      (Time.to_sec_f (Time.sub d.busy_until now) *. t.bandwidth_bps /. 8.0)

let span_drop t pkt ~reason =
  if Span.on () then
    Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
      ~reason ~bytes:(Packet.size pkt) ()

let transmit t ~dir pkt ~deliver =
  let d = t.dirs.(dir) in
  let size = Packet.size pkt in
  if not t.up then begin
    d.down_drops <- d.down_drops + 1;
    span_drop t pkt ~reason:"link-down"
  end
  else if backlog_bytes t d + size > t.queue_bytes then begin
    d.queue_drops <- d.queue_drops + 1;
    span_drop t pkt ~reason:"link-queue-overflow"
  end
  else if d.bg_loss > 0.0 && Vini_std.Rng.float t.rng 1.0 < d.bg_loss then begin
    (* Loss pressure from fluid background traffic: the packet would have
       met a full queue of cross-traffic.  Occupies the wire like random
       loss does. *)
    let now = Engine.now t.engine in
    d.busy_until <- Time.add (Time.max d.busy_until now) (serialization t size);
    d.bg_drops <- d.bg_drops + 1;
    d.sent <- d.sent + 1;
    d.bytes_sent <- d.bytes_sent + size;
    span_drop t pkt ~reason:"background-loss"
  end
  else if t.loss > 0.0 && Vini_std.Rng.float t.rng 1.0 < t.loss then begin
    (* Random loss still occupies the wire. *)
    let now = Engine.now t.engine in
    d.busy_until <- Time.add (Time.max d.busy_until now) (serialization t size);
    d.loss_drops <- d.loss_drops + 1;
    d.sent <- d.sent + 1;
    d.bytes_sent <- d.bytes_sent + size;
    span_drop t pkt ~reason:"link-loss"
  end
  else begin
    let now = Engine.now t.engine in
    let start = Time.max d.busy_until now in
    let tx_done = Time.add start (serialization t size) in
    d.busy_until <- tx_done;
    d.sent <- d.sent + 1;
    d.bytes_sent <- d.bytes_sent + size;
    if Span.on () then begin
      (* The wire's own queueing: time spent waiting for the transmitter
         (the virtual backlog), then the serialisation slice. *)
      if Time.compare start now > 0 then
        Span.hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
          Span.Queueing ~t0:now ~t1:start;
      Span.hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
        Span.Serialization ~t0:start ~t1:tx_done
    end;
    let arrival = Time.add (Time.add tx_done d.bg_delay) t.delay in
    ignore
      (Engine.at t.engine arrival (fun () ->
           (* A failure during flight loses in-flight packets too. *)
           if t.up then begin
             d.delivered <- d.delivered + 1;
             if Span.on () then
               Span.hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
                 ~component:t.name Span.Propagation ~t0:tx_done ~t1:arrival;
             deliver pkt
           end
           else begin
             d.down_drops <- d.down_drops + 1;
             span_drop t pkt ~reason:"link-down"
           end))
  end

let set_up t up = t.up <- up
let is_up t = t.up

let set_background t ~dir ~delay ~loss =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Plink.set_background: loss";
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Plink.set_background: delay";
  let d = t.dirs.(dir) in
  (* Store only a change: [dir_state] mixes ints and floats, so a write
     to [bg_loss] boxes the float, and the fluid fold re-sets every
     queue's pressure each tick, mostly to the value already there. *)
  if Time.compare d.bg_delay delay <> 0 then d.bg_delay <- delay;
  if Float.compare d.bg_loss loss <> 0 then d.bg_loss <- loss
[@@inline]

let stats t ~dir =
  let d = t.dirs.(dir) in
  {
    sent = d.sent;
    delivered = d.delivered;
    queue_drops = d.queue_drops;
    loss_drops = d.loss_drops;
    down_drops = d.down_drops;
    bg_drops = d.bg_drops;
    bytes_sent = d.bytes_sent;
  }

let bandwidth_bps t = t.bandwidth_bps
