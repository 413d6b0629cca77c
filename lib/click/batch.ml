module Packet = Vini_net.Packet
module Addr = Vini_net.Addr

(* [bytes] caches the summed size of [0, len) for the elements a burst
   crosses: each one adds it to its byte counter, and without the cache
   every element of a chain re-read every packet.  Any in-place write
   marks it stale (-1); [bytes] recomputes it once.  [slots] is mutable
   only so that [exchange] can hand a full array over whole. *)
type t = {
  mutable slots : Packet.t array;
  mutable len : int;
  mutable bytes : int;
}

(* Array.make needs a fill value and Packet.t has no natural zero; a
   throwaway datagram serves.  Lazy so programs that never batch do not
   consume a packet id (ids are a global sequence and feed the span
   exports — an unconditional dummy would shift every id). *)
let filler =
  lazy
    (Packet.udp ~src:Addr.any ~dst:Addr.any ~sport:0 ~dport:0
       (Packet.Bytes_ 0))

let create ~capacity =
  if capacity < 1 then invalid_arg "Batch.create: capacity must be positive";
  { slots = Array.make capacity (Lazy.force filler); len = 0; bytes = 0 }

let add t pkt =
  if t.len = Array.length t.slots then false
  else begin
    Array.unsafe_set t.slots t.len pkt;
    t.len <- t.len + 1;
    t.bytes <- -1;
    true
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Batch.get: index out of range";
  Array.unsafe_get t.slots i

(* The bounds-checked accessors guard the API surface; in-repo hot loops
   that already iterate [0, len) use this one. *)
let unsafe_get t i = Array.unsafe_get t.slots i

let set t i pkt =
  if i < 0 || i >= t.len then invalid_arg "Batch.set: index out of range";
  Array.unsafe_set t.slots i pkt;
  t.bytes <- -1

let unsafe_set t i pkt =
  Array.unsafe_set t.slots i pkt;
  t.bytes <- -1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Batch.truncate: bad length";
  t.len <- n;
  t.bytes <- -1

let bytes t =
  if t.bytes < 0 then begin
    let sum = ref 0 in
    for i = 0 to t.len - 1 do
      (* [Packet.size] is this field; reading it saves a call. *)
      sum := !sum + (Array.unsafe_get t.slots i).Packet.len
    done;
    t.bytes <- !sum
  end;
  t.bytes

let exchange t full =
  if t.len <> 0 || Array.length full <> Array.length t.slots then
    invalid_arg "Batch.exchange: batch not empty or lengths differ";
  let old = t.slots in
  t.slots <- full;
  t.len <- Array.length full;
  t.bytes <- -1;
  old

let length t = t.len
let capacity t = Array.length t.slots
let is_empty t = t.len = 0

let clear t =
  t.len <- 0;
  t.bytes <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.slots i)
  done
