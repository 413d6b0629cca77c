module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet

type Packet.control +=
  | Data of { seq : int; payload : Packet.control; psize : int }
  | Ack of int

type t = {
  engine : Engine.t;
  send : Packet.control -> size:int -> unit;
  deliver : Packet.control -> unit;
  queue : (Packet.control * int) Queue.t;
  mutable next_seq : int;          (* next seq to assign *)
  mutable unacked : (int * Packet.control * int) option;
  mutable timer : Engine.handle option;
  mutable expected : int;          (* next seq expected from peer *)
  mutable retransmissions : int;
  mutable stopped : bool;
}

(* Retransmission timeout of the one unacknowledged frame. *)
let rto = Time.ms 800

let create ~engine ~send ~deliver () =
  {
    engine;
    send;
    deliver;
    queue = Queue.create ();
    next_seq = 0;
    unacked = None;
    timer = None;
    expected = 0;
    retransmissions = 0;
    stopped = false;
  }

let frame_size psize = psize + 12

let rec transmit t =
  match t.unacked with
  | Some (seq, payload, psize) ->
      t.send (Data { seq; payload; psize }) ~size:(frame_size psize);
      t.timer <-
        Some
          (Engine.after t.engine rto (fun () ->
               if not t.stopped && t.unacked <> None then begin
                 t.retransmissions <- t.retransmissions + 1;
                 transmit t
               end))
  | None -> ()

let pump t =
  if t.unacked = None && not (Queue.is_empty t.queue) then begin
    let payload, psize = Queue.pop t.queue in
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    t.unacked <- Some (seq, payload, psize);
    transmit t
  end

let post t payload ~size =
  if not t.stopped then begin
    Queue.push (payload, size) t.queue;
    pump t
  end

let receive t msg =
  match msg with
  | Data { seq; payload; _ } ->
      (* Always ack what we have seen; deliver only in-order novelty. *)
      if seq = t.expected then begin
        t.expected <- t.expected + 1;
        t.send (Ack seq) ~size:12;
        t.deliver payload
      end
      else t.send (Ack (min seq (t.expected - 1))) ~size:12;
      true
  | Ack seq ->
      (match t.unacked with
      | Some (s, _, _) when seq >= s ->
          t.unacked <- None;
          (match t.timer with Some h -> Engine.cancel h | None -> ());
          t.timer <- None;
          pump t
      | Some _ | None -> ());
      true
  | _ -> false

let stop t =
  t.stopped <- true;
  Queue.clear t.queue;
  t.unacked <- None;
  (match t.timer with Some h -> Engine.cancel h | None -> ());
  t.timer <- None

let reset t =
  stop t;
  t.stopped <- false;
  t.next_seq <- 0;
  t.expected <- 0

let retransmissions t = t.retransmissions
let in_flight t = (if t.unacked = None then 0 else 1) + Queue.length t.queue
