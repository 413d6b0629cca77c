(* Freelist as a fixed array used as a stack: slots [0, free) hold
   available packets.  Take and recycle are a bounds check and one array
   access; nothing on either path allocates.  Popped slots keep their old
   reference — harmless, since the pool's whole population is preallocated
   and recycled references replace them within one drain cycle. *)

type t = {
  slots : Packet.t array;
  mutable free : int;
  mutable low_watermark : int; (* fewest free slots ever seen *)
  mutable takes : int;
  mutable exhaustions : int;
  mutable overfills : int;
}

exception Exhausted

let create ~capacity ~mint () =
  if capacity < 1 then invalid_arg "Pool.create: capacity must be positive";
  {
    slots = Array.init capacity mint;
    free = capacity;
    low_watermark = capacity;
    takes = 0;
    exhaustions = 0;
    overfills = 0;
  }

let take t =
  if t.free = 0 then begin
    t.exhaustions <- t.exhaustions + 1;
    raise Exhausted
  end
  else begin
    let i = t.free - 1 in
    t.free <- i;
    if i < t.low_watermark then t.low_watermark <- i;
    t.takes <- t.takes + 1;
    Array.unsafe_get t.slots i
  end

let take_opt t =
  if t.free = 0 then begin
    t.exhaustions <- t.exhaustions + 1;
    None
  end
  else begin
    let i = t.free - 1 in
    t.free <- i;
    if i < t.low_watermark then t.low_watermark <- i;
    t.takes <- t.takes + 1;
    Some (Array.unsafe_get t.slots i)
  end

let recycle t pkt =
  if t.free = Array.length t.slots then t.overfills <- t.overfills + 1
  else begin
    Array.unsafe_set t.slots t.free pkt;
    t.free <- t.free + 1
  end

let available t = t.free
let low_watermark t = t.low_watermark
let capacity t = Array.length t.slots
let takes t = t.takes
let exhaustions t = t.exhaustions
let overfills t = t.overfills
