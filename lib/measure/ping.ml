module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack

type mode = Flood | Interval of Time.t

let flood_floor = Time.ms 10
let payload_bytes = 56
let next_ident = ref 0x4000

type t = {
  stack : Ipstack.t;
  engine : Engine.t;
  dst : Vini_net.Addr.t;
  count : int;
  mode : mode;
  reply_timeout : Time.t;
  ident : int;
  mutable sent : int;
  mutable received : int;
  mutable outstanding : int option;        (* seq awaiting reply *)
  mutable sent_at : Time.t;
  mutable timeout_h : Engine.handle option;
  rtts : Vini_std.Stats.t;
  mutable series_rev : (float * float) list;
  mutable finished : bool;
  mutable finish_hooks : (unit -> unit) list;
}

let finish t =
  if not t.finished then begin
    t.finished <- true;
    (match t.timeout_h with Some h -> Engine.cancel h | None -> ());
    List.iter (fun f -> f ()) t.finish_hooks
  end

let rec send_next t =
  if t.sent >= t.count then begin
    if t.outstanding = None then finish t
  end
  else begin
    let seq = t.sent in
    t.sent <- t.sent + 1;
    t.outstanding <- Some seq;
    t.sent_at <- Engine.now t.engine;
    let echo =
      Packet.Echo_request
        {
          Packet.ident = t.ident;
          icmp_seq = seq;
          sent_ns = Engine.now t.engine;
          data_len = payload_bytes;
        }
    in
    Ipstack.send t.stack
      (Packet.icmp ~src:(Ipstack.local_addr t.stack) ~dst:t.dst echo);
    (* Unanswered probes give way to the next one after the timeout. *)
    (match t.timeout_h with Some h -> Engine.cancel h | None -> ());
    t.timeout_h <-
      Some
        (Engine.after t.engine t.reply_timeout (fun () ->
             if t.outstanding = Some seq then begin
               t.outstanding <- None;
               schedule_next t ~after:Time.zero
             end))
  end

and schedule_next t ~after =
  if t.sent >= t.count then begin
    if t.outstanding = None then finish t
  end
  else ignore (Engine.after t.engine after (fun () -> send_next t))

let on_reply t (e : Packet.echo) =
  if e.Packet.ident = t.ident then begin
    let now = Engine.now t.engine in
    let rtt_ms = Time.to_ms_f (Time.sub now e.Packet.sent_ns) in
    t.received <- t.received + 1;
    Vini_std.Stats.add t.rtts rtt_ms;
    t.series_rev <-
      (Time.to_sec_f e.Packet.sent_ns, rtt_ms) :: t.series_rev;
    match t.outstanding with
    | Some seq when seq = e.Packet.icmp_seq ->
        t.outstanding <- None;
        (match t.timeout_h with Some h -> Engine.cancel h | None -> ());
        t.timeout_h <- None;
        let gap =
          match t.mode with
          | Flood ->
              (* ping -f: next probe when the reply lands, with a floor. *)
              let elapsed = Time.sub now t.sent_at in
              Time.max Time.zero (Time.sub flood_floor elapsed)
          | Interval i ->
              let elapsed = Time.sub now t.sent_at in
              Time.max Time.zero (Time.sub i elapsed)
        in
        schedule_next t ~after:gap
    | Some _ | None ->
        (* A late reply: the timeout already moved the schedule along. *)
        ()
  end

let start ~stack ~dst ~count ?(mode = Flood) ?(reply_timeout = Time.sec 1) () =
  incr next_ident;
  let t =
    {
      stack;
      engine = Ipstack.engine stack;
      dst;
      count;
      mode;
      reply_timeout;
      ident = !next_ident;
      sent = 0;
      received = 0;
      outstanding = None;
      sent_at = Time.zero;
      timeout_h = None;
      rtts = Vini_std.Stats.create ();
      series_rev = [];
      finished = false;
      finish_hooks = [];
    }
  in
  Ipstack.set_icmp_handler stack (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Icmp (Packet.Echo_reply e) -> on_reply t e
      | Packet.Icmp (Packet.Echo_request e) ->
          (* Behave like the kernel for inbound probes. *)
          Ipstack.send stack
            (Packet.icmp ~src:(Ipstack.local_addr stack) ~dst:pkt.Packet.src
               (Packet.Echo_reply e))
      | Packet.Icmp (Packet.Time_exceeded _)
      | Packet.Icmp (Packet.Dest_unreachable _)
      | Packet.Udp _ | Packet.Tcp _ -> ());
  send_next t;
  t

let sent t = t.sent
let received t = t.received

let loss_pct t =
  if t.sent = 0 then 0.0
  else 100.0 *. float_of_int (t.sent - t.received) /. float_of_int t.sent

let rtt_ms t = t.rtts
let series t = List.rev t.series_rev
let finished t = t.finished
let on_finish t f = t.finish_hooks <- t.finish_hooks @ [ f ]
