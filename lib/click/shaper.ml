module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Span = Vini_sim.Span
module Packet = Vini_net.Packet

type t = {
  engine : Engine.t;
  mutable rate_bps : float;
  burst_bytes : int;
  queue : Packet.t Vini_std.Fifo.t;
  out : Element.t;
  mutable tokens : float;          (* bytes *)
  mutable last_fill : Time.t;
  mutable release : Engine.handle option;
  mutable element : Element.t option;
}

(* The bucket must hold at least one head-of-line packet, or a packet
   larger than the burst could never be released. *)
let capacity t =
  let head = match Vini_std.Fifo.peek t.queue with
    | Some pkt -> Packet.size pkt
    | None -> 0
  in
  float_of_int (Int.max t.burst_bytes head)

let refill t =
  let now = Engine.now t.engine in
  let dt = Time.to_sec_f (Time.sub now t.last_fill) in
  t.tokens <- Float.min (capacity t) (t.tokens +. (dt *. t.rate_bps /. 8.0));
  t.last_fill <- now

let shaper_component t =
  match t.element with Some e -> Element.name e | None -> "shaper"

let rec drain t =
  t.release <- None;
  refill t;
  match Vini_std.Fifo.peek t.queue with
  | None -> ()
  | Some pkt ->
      let size = float_of_int (Packet.size pkt) in
      (* Epsilon absorbs float refill error; without it the wait below can
         round to zero nanoseconds and the release event would re-fire at
         the same instant forever. *)
      if t.tokens >= size -. 1e-6 then begin
        ignore (Vini_std.Fifo.pop t.queue);
        t.tokens <- t.tokens -. size;
        if Span.on () then
          Span.dequeue_hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
            ~component:(shaper_component t) ();
        Element.push t.out pkt;
        drain t
      end
      else begin
        let wait = (size -. t.tokens) *. 8.0 /. t.rate_bps in
        let wait = Time.max (Time.ns 100) (Time.of_sec_f wait) in
        t.release <- Some (Engine.after t.engine wait (fun () -> drain t))
      end

let create ~engine ~rate_bps ?(burst_bytes = 16_000) ?(queue_bytes = 131_072)
    ~out name =
  if rate_bps <= 0.0 then invalid_arg "Shaper.create: rate must be positive";
  let t =
    {
      engine;
      rate_bps;
      burst_bytes;
      queue =
        Vini_std.Fifo.create ~max_bytes:queue_bytes ~size_of:Packet.size ();
      out;
      tokens = float_of_int burst_bytes;
      last_fill = Engine.now engine;
      release = None;
      element = None;
    }
  in
  let rec el =
    lazy
      (Element.make name (fun pkt ->
           if Vini_std.Fifo.push t.queue pkt then begin
             if Span.on () then Span.note_enqueue ~pkt:pkt.Packet.id;
             if t.release = None then drain t
           end
           else Element.drop (Lazy.force el) ~reason:"shaper-overflow" pkt))
  in
  t.element <- Some (Lazy.force el);
  t

let element t = Option.get t.element

let set_rate t rate =
  refill t;
  t.rate_bps <- rate;
  (* Re-plan any scheduled release under the new rate. *)
  match t.release with
  | Some h ->
      Engine.cancel h;
      t.release <- None;
      drain t
  | None -> ()

let drops t = Vini_std.Fifo.drops t.queue
