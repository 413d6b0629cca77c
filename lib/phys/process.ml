module Time = Vini_sim.Time
module Span = Vini_sim.Span
module Profile = Vini_sim.Profile
module Packet = Vini_net.Packet
module Fifo = Vini_std.Fifo

type t = {
  pnode : Pnode.t;
  proc_name : string;
  (* Every input buffer, served round-robin in opening order: each
     socket's receive buffer ({!Pnode.Socket.buffer}) and each local
     queue. *)
  mutable sources : Packet.t Fifo.t array;
  (* The sockets behind some of [sources], kept only to unbind them on a
     crash and rebind them on a restart. *)
  mutable sockets : Pnode.Socket.s list;
  mutable handler : Packet.t -> unit;
  cost_of : Packet.t -> Time.t;
  mutable proc : Cpu.proc option;
  mutable rr : int;
  burst : int;
  (* Packets budgeted by the last [next_cost] probe; [exec] serves at
     most this many so the CPU time charged always covers the work done
     (arrivals between budgeting and service wait for the next slice). *)
  mutable planned : int;
  mutable processed : int;
  (* Service slices that drained at least one packet; with [burst] this
     gives breath utilization, packets / (breaths * burst). *)
  mutable breaths : int;
  mutable proc_alive : bool;
  mutable crashes : int;
  mutable restarts : int;
  mutable crash_hooks : (unit -> unit) list;
}

let default_cost pkt =
  Time.of_sec_f (Calibration.click_cost_us ~size:(Packet.size pkt) *. 1e-6)

(* Round-robin across sources, starting after the last-served one: the
   index of the first non-empty source, or -1 when none has work (or the
   process is dead).  Allocation-free; it runs at least twice per
   service slice. *)
let next_source t =
  let sources = t.sources in
  let n = Array.length sources in
  let found = ref (-1) in
  if t.proc_alive then begin
    let k = ref 0 in
    while !found < 0 && !k < n do
      (* [rr] is at most [n], so one subtraction wraps the index. *)
      let i = t.rr + !k in
      let i = if i >= n then i - n else i in
      if Fifo.length (Array.unsafe_get sources i) > 0 then found := i;
      incr k
    done
  end;
  !found

let component t = Printf.sprintf "%s@%s" t.proc_name (Pnode.name t.pnode)

let lifecycle_event t phase detail =
  let module Trace = Vini_sim.Trace in
  if Trace.on Trace.Category.Process_lifecycle then
    Trace.emit ~severity:Trace.Warn ~component:(component t)
      (Trace.Process_lifecycle { phase; detail })

let alive t = t.proc_alive
let crashes t = t.crashes
let restarts t = t.restarts
let on_crash t hook = t.crash_hooks <- t.crash_hooks @ [ hook ]

(* A crashing process loses everything it had in flight: its sockets are
   closed (the ports unbind, so the kernel drops arrivals as unmatched),
   its input queues are emptied, and the CPU scheduler finds it idle. *)
let crash t =
  if t.proc_alive then begin
    t.proc_alive <- false;
    t.crashes <- t.crashes + 1;
    List.iter Pnode.Socket.close t.sockets;
    Array.iter Fifo.clear t.sources;
    lifecycle_event t "crash" "";
    List.iter (fun hook -> hook ()) t.crash_hooks
  end

(* Planned shutdown: same resource teardown as a crash, but the exit is
   expected, so crash hooks (supervisor restarts, router teardown) do not
   run.  Used to withdraw the old process after a live migration's drain
   completes. *)
let retire t =
  if t.proc_alive then begin
    t.proc_alive <- false;
    List.iter Pnode.Socket.close t.sockets;
    Array.iter Fifo.clear t.sources;
    lifecycle_event t "retire" ""
  end

let pending_packets t =
  Array.fold_left (fun acc q -> acc + Fifo.length q) 0 t.sources

let restart t =
  if t.proc_alive then invalid_arg "Process.restart: already running";
  if not (Pnode.is_up t.pnode) then
    invalid_arg "Process.restart: node is down";
  t.proc_alive <- true;
  t.restarts <- t.restarts + 1;
  Array.iter Fifo.clear t.sources;
  List.iter Pnode.Socket.reopen t.sockets;
  lifecycle_event t "restart" ""

let create ~node ~slice ~name ?(cost_of = default_cost) ?(burst = 1) ~handler
    () =
  if burst < 1 then invalid_arg "Process.create: burst must be positive";
  let t =
    {
      pnode = node;
      proc_name = name;
      sources = [||];
      sockets = [];
      handler;
      cost_of;
      proc = None;
      rr = 0;
      burst;
      planned = 1;
      processed = 0;
      breaths = 0;
      proc_alive = true;
      crashes = 0;
      restarts = 0;
      crash_hooks = [];
    }
  in
  Pnode.attach_process node ~kill:(fun () -> crash t);
  (* Cpu's contract: a negative cost means no work, and idles the
     process until the next kick. *)
  let next_cost () =
    let i = next_source t in
    if i < 0 then -1
    else begin
      let s = t.sources.(i) in
      if t.burst = 1 then begin
        (* The classic path, untouched: one packet, one slice. *)
        t.planned <- 1;
        match Fifo.peek s with
        | Some pkt -> Cpu.scale_cost (Pnode.cpu node) (t.cost_of pkt)
        | None -> Time.zero
      end
      else begin
        (* Budget a burst: up to [burst] packets from this source,
           charged the sum of their individual costs — batching buys
           fewer scheduler events, never cheaper CPU. *)
        let n = Int.min t.burst (Fifo.length s) in
        t.planned <- n;
        let total = ref Time.zero in
        for i = 0 to n - 1 do
          match Fifo.peek_at s i with
          | Some pkt ->
              total :=
                Time.add !total (Cpu.scale_cost (Pnode.cpu node) (t.cost_of pkt))
          | None -> ()
        done;
        !total
      end
    end
  in
  (* The handler call, wrapped in the profiler's service-cost context so
     element attribution knows the sim-time CPU cost of the packet in
     service (one gate load + test when profiling is off). *)
  let deliver pkt =
    if !Profile.gate then begin
      Profile.set_service_cost
        (Time.to_sec_f (Cpu.scale_cost (Pnode.cpu node) (t.cost_of pkt)));
      t.handler pkt;
      Profile.clear_service_cost ()
    end
    else t.handler pkt
  in
  let serve_one ?interval s =
    match Fifo.pop s with
    | Some pkt ->
        t.processed <- t.processed + 1;
        (if Span.on () then
           (* Split the packet's in-process wait at the instant the
              scheduler began this (dilated) service slice: before it
              is queueing, after it is CPU service.  [interval]
              overrides the boundaries with this packet's slice of a
              burst (see [serve_burst_spanned]). *)
           match t.proc with
           | Some p ->
               let comp = component t in
               let start, finish =
                 match interval with
                 | Some (a, b) -> (a, b)
                 | None ->
                     ( Cpu.last_service p,
                       Vini_sim.Engine.now (Pnode.engine node) )
               in
               Span.dequeue_hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
                 ~component:comp ~until:start ();
               Span.hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
                 ~component:comp Span.Cpu_service ~t0:start ~t1:finish
           | None -> ());
        deliver pkt;
        true
    | None -> false
  in
  (* Per-hop span attribution under bursting: the burst's service window
     [start, finish] is apportioned across its packets in proportion to
     each packet's budgeted cost (the same [scale_cost] quote the budget
     summed), so every packet's Cpu_service span covers exactly its own
     share of the breath instead of the whole breath.  The slices tile
     the window in service order; costs are recomputed with the same
     float operations in the same order as the budget, so the boundaries
     are deterministic per seed. *)
  let serve_burst_spanned s n =
    match t.proc with
    | None ->
        let k = ref 0 in
        while !k < n && serve_one s do
          incr k
        done
    | Some p ->
        let start = Cpu.last_service p in
        let finish = Vini_sim.Engine.now (Pnode.engine node) in
        let span_s = Time.to_sec_f (Time.sub finish start) in
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          match Fifo.peek_at s i with
          | Some pkt ->
              total :=
                !total
                +. Time.to_sec_f (Cpu.scale_cost (Pnode.cpu node) (t.cost_of pkt))
          | None -> ()
        done;
        let prefix = ref 0.0 in
        let at_fraction f =
          if !total <= 0.0 then finish
          else
            Time.min finish
              (Time.add start (Time.of_sec_f (span_s *. (f /. !total))))
        in
        let k = ref 0 in
        let continue = ref true in
        while !k < n && !continue do
          (match Fifo.peek s with
          | Some pkt ->
              let c =
                Time.to_sec_f (Cpu.scale_cost (Pnode.cpu node) (t.cost_of pkt))
              in
              let t0 = if !total <= 0.0 then start else at_fraction !prefix in
              prefix := !prefix +. c;
              let t1 = at_fraction !prefix in
              continue := serve_one ~interval:(t0, t1) s
          | None -> continue := false);
          incr k
        done
  in
  (* Rescans rather than reusing [next_cost]'s pick: a packet that
     arrived on an earlier source during the service slice is next in
     round-robin order by now. *)
  let exec () =
    let i = next_source t in
    if i >= 0 then begin
      let s = t.sources.(i) in
      t.rr <- i + 1;
      t.breaths <- t.breaths + 1;
      if t.burst = 1 then ignore (serve_one s)
      else begin
        (* Serve exactly what was budgeted (or less if the handler
           crashed the process mid-burst and the sources drained). *)
        let n = Int.max 1 t.planned in
        if Span.on () then serve_burst_spanned s n
        else begin
          let k = ref 0 in
          while !k < n && serve_one s do
            incr k
          done
        end
      end
    end
  in
  let proc = Cpu.spawn (Pnode.cpu node) ~slice ~name ~next_cost ~exec in
  t.proc <- Some proc;
  t

let kick t = if t.proc_alive then Option.iter Cpu.kick t.proc

let add_source t s = t.sources <- Array.append t.sources [| s |]

let open_socket t ~port ?rcvbuf_bytes () =
  let sock =
    Pnode.open_udp_socket t.pnode ~port ?rcvbuf_bytes
      ~on_packet:(fun () -> kick t)
      ()
  in
  add_source t (Pnode.Socket.buffer sock);
  t.sockets <- t.sockets @ [ sock ];
  sock

let open_queue t () =
  let q =
    Fifo.create ~max_bytes:Calibration.udp_rcvbuf_bytes ~size_of:Packet.size ()
  in
  add_source t q;
  let module Trace = Vini_sim.Trace in
  fun pkt ->
    if not t.proc_alive then begin
      if Trace.on Trace.Category.Packet_drop then
        Trace.emit ~severity:Trace.Debug
          ~component:(t.proc_name ^ ".inq")
          (Trace.Packet_drop
             { reason = "process-dead"; bytes = Packet.size pkt });
      if Span.on () then
        Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
          ~component:(t.proc_name ^ ".inq") ~reason:"process-dead"
          ~bytes:(Packet.size pkt) ();
      false
    end
    else begin
      let accepted = Fifo.push q pkt in
      if accepted then begin
        if Span.on () then Span.note_enqueue ~pkt:pkt.Packet.id;
        kick t
      end
      else begin
        if Trace.on Trace.Category.Packet_drop then
          Trace.emit ~severity:Trace.Warn
            ~component:(t.proc_name ^ ".inq")
            (Trace.Packet_drop
               { reason = "queue-overflow"; bytes = Packet.size pkt });
        if Span.on () then
          Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
            ~component:(t.proc_name ^ ".inq") ~reason:"queue-overflow"
            ~bytes:(Packet.size pkt) ()
      end;
      accepted
    end

let set_handler t h = t.handler <- h
let node t = t.pnode
let name t = t.proc_name

let cpu_time t =
  match t.proc with Some p -> Cpu.cpu_time p | None -> Time.zero

let wakeups t = match t.proc with Some p -> Cpu.wakeups p | None -> 0
let packets_processed t = t.processed
let breaths t = t.breaths
let burst t = t.burst

let socket_drops t =
  Array.fold_left (fun acc q -> acc + Fifo.drops q) 0 t.sources
