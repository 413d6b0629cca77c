module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Span = Vini_sim.Span
module Packet = Vini_net.Packet

type cls = {
  name : string;
  assured_bps : float;
  ceil_bps : float;
  queue : Packet.t Vini_std.Fifo.t;
  mutable assured_tokens : float;   (* bytes *)
  mutable ceil_tokens : float;
  mutable last_fill : Time.t;
  mutable sent_bytes : int;
  mutable last_served : int;        (* round counter for fairness *)
}

type t = {
  engine : Engine.t;
  rate_bps : float;
  out : Packet.t -> unit;
  mutable classes : cls list;
  default : cls;
  mutable busy_until : Time.t;      (* root serialisation *)
  mutable wake : Engine.handle option;
  mutable round : int;
}

let burst_bytes = 8_000.0

let fresh_class ~name ~assured_bps ~ceil_bps ~queue_bytes now =
  {
    name;
    assured_bps;
    ceil_bps;
    queue =
      Vini_std.Fifo.create ~max_bytes:queue_bytes ~size_of:Packet.size ();
    assured_tokens = burst_bytes;
    ceil_tokens = burst_bytes;
    last_fill = now;
    sent_bytes = 0;
    last_served = 0;
  }

let create ~engine ~rate_bps ~out () =
  if rate_bps <= 0.0 then invalid_arg "Htb.create: rate must be positive";
  let default =
    fresh_class ~name:"default" ~assured_bps:0.0 ~ceil_bps:rate_bps
      ~queue_bytes:131_072 (Engine.now engine)
  in
  {
    engine;
    rate_bps;
    out;
    classes = [ default ];
    default;
    busy_until = Time.zero;
    wake = None;
    round = 0;
  }

let add_class t ~name ?(assured_bps = 0.0) ?ceil_bps ?(queue_bytes = 131_072)
    () =
  let ceil_bps = Option.value ceil_bps ~default:t.rate_bps in
  if List.exists (fun c -> c.name = name) t.classes then
    invalid_arg "Htb.add_class: duplicate class";
  if assured_bps > ceil_bps then
    invalid_arg "Htb.add_class: assured above ceiling";
  let c =
    fresh_class ~name ~assured_bps ~ceil_bps ~queue_bytes (Engine.now t.engine)
  in
  t.classes <- t.classes @ [ c ];
  c

let find_class t name = List.find_opt (fun c -> c.name = name) t.classes
let default_class t = t.default

let refill t c =
  let now = Engine.now t.engine in
  let dt = Time.to_sec_f (Time.sub now c.last_fill) in
  let head =
    match Vini_std.Fifo.peek c.queue with
    | Some pkt -> float_of_int (Packet.size pkt)
    | None -> 0.0
  in
  let cap = Float.max burst_bytes head in
  c.assured_tokens <-
    Float.min cap (c.assured_tokens +. (dt *. c.assured_bps /. 8.0));
  c.ceil_tokens <- Float.min cap (c.ceil_tokens +. (dt *. c.ceil_bps /. 8.0));
  c.last_fill <- now

(* Pick the next class to serve: green (under assured) before yellow
   (borrowing under ceil); round-robin by last service round. *)
let pick t =
  List.iter (refill t) t.classes;
  let head_size c =
    match Vini_std.Fifo.peek c.queue with
    | Some pkt -> Some (float_of_int (Packet.size pkt))
    | None -> None
  in
  let eligible pred =
    List.filter_map
      (fun c ->
        match head_size c with
        | Some size when pred c size -> Some c
        | Some _ | None -> None)
      t.classes
  in
  let oldest = function
    | [] -> None
    | cs ->
        Some
          (List.fold_left
             (fun best c -> if c.last_served < best.last_served then c else best)
             (List.hd cs) cs)
  in
  match
    oldest (eligible (fun c size -> c.assured_tokens >= size -. 1e-6))
  with
  | Some c -> Some (c, `Green)
  | None -> (
      match
        oldest (eligible (fun c size -> c.ceil_tokens >= size -. 1e-6))
      with
      | Some c -> Some (c, `Yellow)
      | None -> None)

(* Earliest time any backlogged class will have ceiling tokens. *)
let next_token_time t =
  List.fold_left
    (fun acc c ->
      match Vini_std.Fifo.peek c.queue with
      | None -> acc
      | Some pkt ->
          let deficit =
            float_of_int (Packet.size pkt) -. c.ceil_tokens
          in
          if c.ceil_bps <= 0.0 then acc
          else
            let wait = Float.max 0.0 (deficit *. 8.0 /. c.ceil_bps) in
            Time.min acc (Time.of_sec_f wait))
    (Time.sec 3600) t.classes

let rec schedule t =
  if t.wake = None then begin
    let now = Engine.now t.engine in
    if Time.compare t.busy_until now > 0 then
      t.wake <-
        Some
          (Engine.at t.engine t.busy_until (fun () ->
               t.wake <- None;
               drain t))
    else drain t
  end

and drain t =
  match pick t with
  | None ->
      (* Backlogged but token-starved: wake when tokens accrue. *)
      if List.exists (fun c -> not (Vini_std.Fifo.is_empty c.queue)) t.classes
      then
        t.wake <-
          Some
            (Engine.after t.engine
               (Time.max (Time.ns 200) (next_token_time t))
               (fun () ->
                 t.wake <- None;
                 drain t))
  | Some (c, colour) -> (
      match Vini_std.Fifo.pop c.queue with
      | None -> ()
      | Some pkt ->
          let size = float_of_int (Packet.size pkt) in
          (match colour with
          | `Green -> c.assured_tokens <- c.assured_tokens -. size
          | `Yellow -> ());
          c.ceil_tokens <- c.ceil_tokens -. size;
          c.sent_bytes <- c.sent_bytes + Packet.size pkt;
          t.round <- t.round + 1;
          c.last_served <- t.round;
          (* Root serialisation at the NIC rate. *)
          let now = Engine.now t.engine in
          let tx = Time.of_sec_f (size *. 8.0 /. t.rate_bps) in
          let start = Time.max t.busy_until now in
          t.busy_until <- Time.add start tx;
          if Span.on () then begin
            Span.dequeue_hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
              ~component:("htb." ^ c.name) ();
            Span.hop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
              ~component:("htb." ^ c.name) Span.Serialization ~t0:start
              ~t1:t.busy_until
          end;
          ignore
            (Engine.at t.engine t.busy_until (fun () -> t.out pkt));
          schedule t)

let enqueue t c pkt =
  let accepted = Vini_std.Fifo.push c.queue pkt in
  if Span.on () then
    if accepted then Span.note_enqueue ~pkt:pkt.Packet.id
    else
      Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
        ~component:("htb." ^ c.name) ~reason:"htb-overflow"
        ~bytes:(Packet.size pkt) ();
  if accepted then schedule t;
  accepted

let class_drops c = Vini_std.Fifo.drops c.queue
let class_sent_bytes c = c.sent_bytes
