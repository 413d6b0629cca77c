module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Trace = Vini_sim.Trace
module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack

let default_mss = 1430
let initial_rto = Time.sec 1
let default_rwnd = 16 * 1024
let min_rto = Time.ms 200
let max_rto = Time.sec 60
let delayed_ack = Time.ms 40

(* Sequence space: plain 0-based byte offsets of the data stream.  SYNs are
   pure control (flags + connection state); the FIN occupies one virtual
   byte at offset [snd_max], so "everything including FIN acked" is
   observable as ack = snd_max + 1. *)

type state = Syn_sent | Syn_rcvd | Established | Fin_sent | Closed

let state_name = function
  | Syn_sent -> "syn-sent"
  | Syn_rcvd -> "syn-rcvd"
  | Established -> "established"
  | Fin_sent -> "fin-sent"
  | Closed -> "closed"

type stats = {
  bytes_acked : int;
  bytes_delivered : int;
  retransmits : int;
  timeouts : int;
  srtt : float;
  cwnd : int;
  state : string;
}

type t = {
  stack : Ipstack.t;
  engine : Engine.t;
  local_port : int;
  remote : Vini_net.Addr.t;
  remote_port : int;
  rwnd_limit : int;
  mutable state : state;
  (* sender *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;
  mutable app_remaining : int option;  (* None = infinite source *)
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable peer_rwnd : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  (* RTT estimation *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : Time.t;
  mutable rtt_seq : int option;
  mutable rtt_sent_at : Time.t;
  mutable retransmitted_since_sample : bool;
  mutable rto_timer : Engine.handle option;
  mutable last_send : Time.t;
  (* receiver *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;   (* (start, len), sorted & disjoint *)
  mutable fin_rcvd_at : int option;
  mutable fin_consumed : bool;
  mutable acks_owed : int;
  mutable ack_timer : Engine.handle option;
  (* stats & hooks *)
  mutable bytes_delivered : int;
  mutable retransmits : int;
  mutable timeouts : int;
  cwnd_hist : Vini_std.Histogram.t; (* cwnd in bytes, sampled per good ack *)
  mutable deliver_hook : int -> unit;
  mutable segment_hook : Packet.t -> unit;
  mutable established_hook : unit -> unit;
  mutable closed_hook : unit -> unit;
}

let make ~stack ~local_port ~remote ~remote_port ~rwnd state =
  {
    stack;
    engine = Ipstack.engine stack;
    local_port;
    remote;
    remote_port;
    rwnd_limit = rwnd;
    state;
    snd_una = 0;
    snd_nxt = 0;
    snd_max = 0;
    app_remaining = Some 0;
    fin_queued = false;
    fin_sent = false;
    cwnd = 2 * default_mss;
    ssthresh = 64 * 1024;
    peer_rwnd = rwnd;
    dup_acks = 0;
    in_recovery = false;
    recover = 0;
    srtt = 0.0;
    rttvar = 0.0;
    rto = initial_rto;
    rtt_seq = None;
    rtt_sent_at = Time.zero;
    retransmitted_since_sample = false;
    rto_timer = None;
    last_send = Time.zero;
    rcv_nxt = 0;
    ooo = [];
    fin_rcvd_at = None;
    fin_consumed = false;
    acks_owed = 0;
    ack_timer = None;
    bytes_delivered = 0;
    retransmits = 0;
    timeouts = 0;
    cwnd_hist = Vini_std.Histogram.create ();
    deliver_hook = (fun _ -> ());
    segment_hook = (fun _ -> ());
    established_hook = (fun () -> ());
    closed_hook = (fun () -> ());
  }

let flight t = t.snd_nxt - t.snd_una

let adv_window t =
  let ooo_bytes = List.fold_left (fun acc (_, l) -> acc + l) 0 t.ooo in
  Int.max 0 (t.rwnd_limit - ooo_bytes)

let emit t ?(syn = false) ?(ack = true) ?(fin = false) ~seq ~payload_len () =
  let seg =
    {
      Packet.sport = t.local_port;
      dport = t.remote_port;
      seq;
      ack = t.rcv_nxt;
      flags = { Packet.syn; ack; fin; rst = false };
      window = adv_window t;
      payload_len;
      sent_ns = Engine.now t.engine;
    }
  in
  if ack then begin
    t.acks_owed <- 0;
    (match t.ack_timer with Some h -> Engine.cancel h | None -> ());
    t.ack_timer <- None
  end;
  Ipstack.send t.stack
    (Packet.tcp ~src:(Ipstack.local_addr t.stack) ~dst:t.remote seg)

let component t = Printf.sprintf "tcp:%d" t.local_port

let trace_retransmit t what =
  if Trace.on Trace.Category.Custom then
    Trace.emit ~severity:Trace.Warn ~component:(component t)
      (Trace.Custom what)

let cancel_rto t =
  (match t.rto_timer with Some h -> Engine.cancel h | None -> ());
  t.rto_timer <- None

let rec arm_rto t =
  cancel_rto t;
  t.rto_timer <- Some (Engine.after t.engine t.rto (fun () -> on_rto t))

and on_rto t =
  t.rto_timer <- None;
  match t.state with
  | Closed -> ()
  | Syn_sent ->
      t.timeouts <- t.timeouts + 1;
      t.rto <- Time.min max_rto (Time.mul t.rto 2);
      emit t ~syn:true ~ack:false ~seq:0 ~payload_len:0 ();
      arm_rto t
  | Syn_rcvd ->
      t.timeouts <- t.timeouts + 1;
      t.rto <- Time.min max_rto (Time.mul t.rto 2);
      emit t ~syn:true ~seq:0 ~payload_len:0 ();
      arm_rto t
  | Established | Fin_sent ->
      if flight t = 0 && not t.fin_sent then () (* nothing outstanding *)
      else begin
        t.timeouts <- t.timeouts + 1;
        t.ssthresh <- Int.max (flight t / 2) (2 * default_mss);
        t.cwnd <- default_mss;
        t.in_recovery <- false;
        t.dup_acks <- 0;
        t.rto <- Time.min max_rto (Time.mul t.rto 2);
        t.retransmitted_since_sample <- true;
        t.rtt_seq <- None;
        t.snd_nxt <- t.snd_una;
        t.retransmits <- t.retransmits + 1;
        trace_retransmit t "rto-retransmit";
        retransmit_one t;
        arm_rto t
      end

and retransmit_one t =
  if t.fin_sent && t.snd_una >= t.snd_max then
    emit t ~fin:true ~seq:t.snd_max ~payload_len:0 ()
  else begin
    let len = Int.min default_mss (Int.max 0 (t.snd_max - t.snd_una)) in
    if len > 0 then begin
      emit t ~seq:t.snd_una ~payload_len:len ();
      t.snd_nxt <- Int.max t.snd_nxt (t.snd_una + len)
    end
  end

(* Bytes available to send starting at snd_nxt (committed + fresh app data). *)
and available t =
  let committed = Int.max 0 (t.snd_max - t.snd_nxt) in
  let fresh =
    match t.app_remaining with None -> default_mss | Some r -> Int.max 0 r
  in
  committed + fresh

and pump t =
  match t.state with
  | Established | Fin_sent ->
      (* Slow-start restart after an idle period (RFC 2861 flavour). *)
      let now = Engine.now t.engine in
      if
        flight t = 0
        && Time.compare t.last_send Time.zero > 0
        && Time.compare (Time.sub now t.last_send) t.rto > 0
      then t.cwnd <- Int.min t.cwnd (2 * default_mss);
      let progress = ref true in
      while !progress do
        (* A floor of one MSS avoids modelling the persist timer. *)
        let window = Int.min t.cwnd (Int.max t.peer_rwnd default_mss) in
        let usable = window - flight t in
        let len = Int.min default_mss (Int.min usable (available t)) in
        if len > 0 then begin
          emit t ~seq:t.snd_nxt ~payload_len:len ();
          if t.rtt_seq = None && not t.retransmitted_since_sample then begin
            t.rtt_seq <- Some (t.snd_nxt + len);
            t.rtt_sent_at <- now
          end;
          let fresh = Int.max 0 (t.snd_nxt + len - t.snd_max) in
          (match t.app_remaining with
          | Some r -> t.app_remaining <- Some (r - fresh)
          | None -> ());
          t.snd_nxt <- t.snd_nxt + len;
          t.snd_max <- Int.max t.snd_max t.snd_nxt;
          t.last_send <- Engine.now t.engine;
          if t.rto_timer = None then arm_rto t
        end
        else progress := false
      done;
      if
        t.fin_queued && not t.fin_sent
        && t.app_remaining = Some 0
        && t.snd_nxt = t.snd_max
      then begin
        t.fin_sent <- true;
        t.state <- Fin_sent;
        emit t ~fin:true ~seq:t.snd_max ~payload_len:0 ();
        t.last_send <- Engine.now t.engine;
        if t.rto_timer = None then arm_rto t
      end
  | Syn_sent | Syn_rcvd | Closed -> ()

let sample_rtt t ack =
  match t.rtt_seq with
  | Some seq when ack >= seq ->
      t.rtt_seq <- None;
      if not t.retransmitted_since_sample then begin
        let rtt = Time.to_sec_f (Time.sub (Engine.now t.engine) t.rtt_sent_at) in
        if t.srtt = 0.0 then begin
          t.srtt <- rtt;
          t.rttvar <- rtt /. 2.0
        end
        else begin
          let err = rtt -. t.srtt in
          t.srtt <- t.srtt +. (0.125 *. err);
          t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar))
        end;
        t.rto <- Time.max min_rto (Time.of_sec_f (t.srtt +. (4.0 *. t.rttvar)))
      end;
      t.retransmitted_since_sample <- false
  | Some _ | None -> ()

let grow_cwnd t acked =
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + Int.min acked default_mss
  else t.cwnd <- t.cwnd + Int.max 1 (default_mss * default_mss / t.cwnd);
  Vini_std.Histogram.add t.cwnd_hist (float_of_int t.cwnd)

let send_ack_now t = emit t ~seq:t.snd_nxt ~payload_len:0 ()

let schedule_ack t ~immediate =
  t.acks_owed <- t.acks_owed + 1;
  if immediate || t.acks_owed >= 2 then send_ack_now t
  else if t.ack_timer = None then
    t.ack_timer <-
      Some
        (Engine.after t.engine delayed_ack (fun () ->
             t.ack_timer <- None;
             if t.acks_owed > 0 then send_ack_now t))

(* Out-of-order ranges [(start, len)] sort lexicographically, as the
   polymorphic [compare] would, without going through [compare_val]. *)
let compare_range (s1, l1) (s2, l2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else Int.compare l1 l2

(* Merge an in-flight data range into receive state; returns in-order bytes
   newly available to the application. *)
let receive_data t seq len =
  if len = 0 then 0
  else begin
    let seg_end = seq + len in
    if seg_end <= t.rcv_nxt then 0
    else if seq > t.rcv_nxt then begin
      let start = Int.max seq t.rcv_nxt in
      let merged = List.sort compare_range ((start, seg_end - start) :: t.ooo) in
      let rec coalesce = function
        | (s1, l1) :: (s2, l2) :: rest when s2 <= s1 + l1 ->
            coalesce ((s1, Int.max l1 (s2 + l2 - s1)) :: rest)
        | x :: rest -> x :: coalesce rest
        | [] -> []
      in
      t.ooo <- coalesce merged;
      0
    end
    else begin
      let advance = seg_end - t.rcv_nxt in
      t.rcv_nxt <- seg_end;
      let rec absorb acc = function
        | (s, l) :: rest when s <= t.rcv_nxt ->
            let e = s + l in
            if e > t.rcv_nxt then begin
              let extra = e - t.rcv_nxt in
              t.rcv_nxt <- e;
              absorb (acc + extra) rest
            end
            else absorb acc rest
        | rest ->
            t.ooo <- rest;
            acc
      in
      let extra = absorb 0 t.ooo in
      advance + extra
    end
  end

let become_established t =
  if t.state <> Established then begin
    t.state <- Established;
    cancel_rto t;
    t.rto <- initial_rto;
    t.established_hook ()
  end

let enter_closed t =
  if t.state <> Closed then begin
    t.state <- Closed;
    cancel_rto t;
    (match t.ack_timer with Some h -> Engine.cancel h | None -> ());
    t.ack_timer <- None;
    t.closed_hook ()
  end

let process_ack t (seg : Packet.tcp) =
  t.peer_rwnd <- seg.Packet.window;
  let ack = seg.Packet.ack in
  (* FIN acked: ack covers the virtual FIN byte. *)
  if t.fin_sent && ack > t.snd_max then begin
    t.snd_una <- t.snd_max;
    enter_closed t
  end
  else if ack > t.snd_una then begin
    let newly = ack - t.snd_una in
    t.snd_una <- ack;
    if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
    sample_rtt t ack;
    if t.in_recovery then begin
      if ack >= t.recover then begin
        t.in_recovery <- false;
        t.dup_acks <- 0;
        t.cwnd <- t.ssthresh
      end
      else begin
        (* NewReno partial ack: the next hole is lost too. *)
        t.retransmits <- t.retransmits + 1;
        t.retransmitted_since_sample <- true;
        retransmit_one t
      end
    end
    else begin
      t.dup_acks <- 0;
      grow_cwnd t newly
    end;
    if flight t > 0 || (t.fin_sent && t.state <> Closed) then arm_rto t
    else cancel_rto t;
    pump t
  end
  else if ack = t.snd_una && seg.Packet.payload_len = 0 && flight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 && not t.in_recovery then begin
      t.in_recovery <- true;
      t.recover <- t.snd_max;
      t.ssthresh <- Int.max (flight t / 2) (2 * default_mss);
      t.cwnd <- t.ssthresh + (3 * default_mss);
      t.retransmits <- t.retransmits + 1;
      t.retransmitted_since_sample <- true;
      trace_retransmit t "fast-retransmit";
      retransmit_one t
    end
    else if t.dup_acks > 3 then begin
      t.cwnd <- t.cwnd + default_mss;
      pump t
    end
  end

let process_data t (seg : Packet.tcp) =
  let fresh = receive_data t seg.Packet.seq seg.Packet.payload_len in
  if fresh > 0 then begin
    t.bytes_delivered <- t.bytes_delivered + fresh;
    t.deliver_hook fresh
  end;
  (match (seg.Packet.flags.Packet.fin, t.fin_rcvd_at) with
  | true, None -> t.fin_rcvd_at <- Some (seg.Packet.seq + seg.Packet.payload_len)
  | _ -> ());
  let fin_now =
    match t.fin_rcvd_at with
    | Some fseq when (not t.fin_consumed) && fseq = t.rcv_nxt ->
        t.fin_consumed <- true;
        t.rcv_nxt <- t.rcv_nxt + 1; (* consume the virtual FIN byte *)
        true
    | Some _ | None -> false
  in
  if fin_now then begin
    send_ack_now t;
    enter_closed t
  end
  else if seg.Packet.payload_len > 0 then
    (* Duplicate or out-of-order data wants an immediate (dup) ack. *)
    schedule_ack t ~immediate:(fresh = 0 || t.ooo <> [])

let handle_segment t (pkt : Packet.t) (seg : Packet.tcp) =
  t.segment_hook pkt;
  match t.state with
  | Closed ->
      (* Ack retransmitted FINs so the peer can finish, too. *)
      if seg.Packet.flags.Packet.fin then send_ack_now t
  | Syn_sent ->
      if seg.Packet.flags.Packet.syn && seg.Packet.flags.Packet.ack then begin
        become_established t;
        send_ack_now t;
        pump t
      end
      else if seg.Packet.flags.Packet.syn then begin
        (* Simultaneous open. *)
        t.state <- Syn_rcvd;
        emit t ~syn:true ~seq:0 ~payload_len:0 ()
      end
  | Syn_rcvd ->
      if seg.Packet.flags.Packet.syn && not seg.Packet.flags.Packet.ack then
        (* Retransmitted SYN: answer again. *)
        emit t ~syn:true ~seq:0 ~payload_len:0 ()
      else if seg.Packet.flags.Packet.ack then begin
        become_established t;
        process_ack t seg;
        process_data t seg;
        pump t
      end
  | Established | Fin_sent ->
      if seg.Packet.flags.Packet.syn then
        (* Lost our SYN-ACK's ack; peer repeats SYN. *)
        emit t ~syn:true ~seq:0 ~payload_len:0 ()
      else begin
        if seg.Packet.flags.Packet.ack then process_ack t seg;
        if t.state <> Closed then begin
          process_data t seg;
          pump t
        end
      end

let attach t =
  Ipstack.bind_tcp t.stack ~port:t.local_port (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Tcp seg -> handle_segment t pkt seg
      | Packet.Udp _ | Packet.Icmp _ -> ())

let connect ~stack ~dst ~dst_port ?(rwnd = default_rwnd) () =
  let local_port = Ipstack.alloc_ephemeral stack in
  let t =
    make ~stack ~local_port ~remote:dst ~remote_port:dst_port ~rwnd Syn_sent
  in
  attach t;
  emit t ~syn:true ~ack:false ~seq:0 ~payload_len:0 ();
  arm_rto t;
  t

let listen ~stack ~port ?(rwnd = default_rwnd) ~on_accept () =
  let conns : (Vini_net.Addr.t * int, t) Hashtbl.t = Hashtbl.create 16 in
  Ipstack.bind_tcp stack ~port (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Tcp seg -> (
          let key = (pkt.Packet.src, seg.Packet.sport) in
          match Hashtbl.find_opt conns key with
          | Some t -> handle_segment t pkt seg
          | None ->
              if seg.Packet.flags.Packet.syn && not seg.Packet.flags.Packet.ack
              then begin
                let t =
                  make ~stack ~local_port:port ~remote:pkt.Packet.src
                    ~remote_port:seg.Packet.sport ~rwnd Syn_rcvd
                in
                Hashtbl.replace conns key t;
                on_accept t;
                emit t ~syn:true ~seq:0 ~payload_len:0 ();
                arm_rto t
              end)
      | Packet.Udp _ | Packet.Icmp _ -> ())

let send t n =
  if n < 0 then invalid_arg "Tcp.send: negative length";
  (match t.app_remaining with
  | Some r -> t.app_remaining <- Some (r + n)
  | None -> ());
  pump t

let send_forever t =
  t.app_remaining <- None;
  pump t

let close t =
  t.fin_queued <- true;
  pump t

let on_deliver t f = t.deliver_hook <- f
let on_segment_arrival t f = t.segment_hook <- f
let on_established t f = t.established_hook <- f
let on_closed t f = t.closed_hook <- f

let stats t =
  {
    bytes_acked = Int.min t.snd_una t.snd_max;
    bytes_delivered = t.bytes_delivered;
    retransmits = t.retransmits;
    timeouts = t.timeouts;
    srtt = t.srtt;
    cwnd = t.cwnd;
    state = state_name t.state;
  }

let cwnd_hist t = t.cwnd_hist
