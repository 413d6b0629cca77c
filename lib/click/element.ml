module Packet = Vini_net.Packet
module Trace = Vini_sim.Trace
module Span = Vini_sim.Span
module Profile = Vini_sim.Profile

type t = {
  name : string;
  pid : int; (* Profile class id, interned once at creation *)
  f : Packet.t -> unit;
  fb : (Batch.t -> unit) option;
  mutable packets : int;
  mutable bytes : int;
  mutable drops : int;
}

let make name f =
  {
    name;
    pid = Profile.class_id name;
    f;
    fb = None;
    packets = 0;
    bytes = 0;
    drops = 0;
  }

let make_batch name ~single ~batch =
  {
    name;
    pid = Profile.class_id name;
    f = single;
    fb = Some batch;
    packets = 0;
    bytes = 0;
    drops = 0;
  }

(* Per-packet observability, shared by both entry points so a packet's
   trace and span stream is identical whether it travelled alone or in a
   burst. *)
let observe t pkt =
  if Trace.on Trace.Category.Packet_tx then
    Trace.emit ~component:t.name (Trace.Packet_tx { bytes = Packet.size pkt });
  if Span.on () then
    Span.instant ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
      Span.Proto_processing

let push t pkt =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + Packet.size pkt;
  observe t pkt;
  (* Profiler attribution: one gate load + test when off.  When on, the
     element's frame brackets its body so nested pushes build the
     collapsed element path. *)
  if !Profile.gate then begin
    Profile.enter t.pid ~packets:1;
    t.f pkt;
    Profile.leave t.pid
  end
  else t.f pkt

let push_batch t b =
  let n = Batch.length b in
  if n > 0 then begin
    t.packets <- t.packets + n;
    (* Count and observe first, then process: counters reflect packets
       as offered, matching the per-packet path where stats precede the
       handler.  Accumulating into the record avoids a [ref] — the
       steady-state batched path allocates nothing. *)
    if Trace.on Trace.Category.Packet_tx || Span.on () then
      for i = 0 to n - 1 do
        let pkt = Batch.unsafe_get b i in
        t.bytes <- t.bytes + Packet.size pkt;
        observe t pkt
      done
    else t.bytes <- t.bytes + Batch.bytes b;
    if !Profile.gate then begin
      Profile.enter t.pid ~packets:n;
      (match t.fb with
      | Some g -> g b
      | None ->
          for i = 0 to n - 1 do
            t.f (Batch.unsafe_get b i)
          done);
      Profile.leave t.pid
    end
    else
      match t.fb with
      | Some g -> g b
      | None ->
          (* Per-packet element in a batched chain: the burst degenerates
             to a loop, preserving per-packet semantics exactly. *)
          for i = 0 to n - 1 do
            t.f (Batch.unsafe_get b i)
          done
  end

let drop t ~reason pkt =
  t.drops <- t.drops + 1;
  if Trace.on Trace.Category.Packet_drop then
    Trace.emit ~severity:Trace.Warn ~component:t.name
      (Trace.Packet_drop { reason; bytes = Packet.size pkt });
  if Span.on () then
    Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig ~component:t.name
      ~reason ~bytes:(Packet.size pkt) ()

let name t = t.name
let packets t = t.packets
let bytes t = t.bytes

let pump ring ~into ~out ~max =
  Batch.clear into;
  let n = Ring.pop_into ring into ~max in
  if n > 0 then push_batch out into;
  n

let discard name = make name (fun _ -> ())

let tee name outs =
  make name (fun pkt -> List.iter (fun o -> push o pkt) outs)

let classifier name ~rules ~default =
  make name (fun pkt ->
      let rec fire = function
        | [] -> push default pkt
        | (test, out) :: rest -> if test pkt then push out pkt else fire rest
      in
      fire rules)

let queue name ?(capacity_bytes = max_int) ~out () =
  let occupancy_bytes = ref 0 in
  let rec t =
    lazy
      (make name (fun pkt ->
           let size = Packet.size pkt in
           if !occupancy_bytes + size > capacity_bytes then
             drop (Lazy.force t) ~reason:"queue-overflow" pkt
           else begin
             (* Synchronous drain: occupancy spikes and falls within the
                same processing step. *)
             occupancy_bytes := !occupancy_bytes + size;
             push out pkt;
             occupancy_bytes := !occupancy_bytes - size
           end))
  in
  Lazy.force t

let queue_drops t = t.drops
