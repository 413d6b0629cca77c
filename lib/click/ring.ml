module Packet = Vini_net.Packet

(* Storage is a row of equal chunks of [1 lsl shift] slots (at most
   [1 lsl max_shift] = 64, the largest power of two dividing the
   capacity).  A burst that is exactly one whole, aligned chunk leaves
   the ring by [Batch.exchange]: the batch takes the chunk array and
   gives back its own, so handing over 64 packets costs two pointer
   writes instead of 64 write-barriered copies.  Anything else copies
   slot by slot, as a flat ring would. *)
type t = {
  chunks : Packet.t array array;
  shift : int;
  mask : int; (* chunk size - 1 *)
  cap : int;
  mutable head : int; (* next pop position *)
  mutable len : int;
  mutable depth_hwm : int; (* deepest the ring has ever been *)
  mutable pushes : int;
  mutable pops : int;
  mutable rejected : int; (* pushes refused because the ring was full *)
}

let max_shift = 6

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  let rec shift_of n k =
    if k < max_shift && n land 1 = 0 then shift_of (n lsr 1) (k + 1) else k
  in
  let shift = shift_of capacity 0 in
  let size = 1 lsl shift in
  (* Reuses the batch filler so only one dummy packet id is ever minted. *)
  let fill = Lazy.force Batch.filler in
  {
    chunks = Array.init (capacity / size) (fun _ -> Array.make size fill);
    shift;
    mask = size - 1;
    cap = capacity;
    head = 0;
    len = 0;
    depth_hwm = 0;
    pushes = 0;
    pops = 0;
    rejected = 0;
  }

(* Indices stay in [0, cap) and advance by at most cap, so a compare and
   subtract replace the [mod] (an integer division) on every hot-path
   access. *)
let[@inline] wrap cap i = if i >= cap then i - cap else i

let[@inline] chunk t i = Array.unsafe_get t.chunks (i lsr t.shift)

let push t pkt =
  if t.len = t.cap then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    let i = wrap t.cap (t.head + t.len) in
    Array.unsafe_set (chunk t i) (i land t.mask) pkt;
    t.len <- t.len + 1;
    if t.len > t.depth_hwm then t.depth_hwm <- t.len;
    t.pushes <- t.pushes + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let pkt = Array.unsafe_get (chunk t t.head) (t.head land t.mask) in
    t.head <- wrap t.cap (t.head + 1);
    t.len <- t.len - 1;
    t.pops <- t.pops + 1;
    Some pkt
  end

let pop_into t batch ~max =
  let n =
    Int.min t.len (Int.min max (Batch.capacity batch - Batch.length batch))
  in
  if n = t.mask + 1 && n = Batch.capacity batch && t.head land t.mask = 0
  then begin
    (* n = capacity, so the batch was empty: [exchange]'s precondition. *)
    let c = t.head lsr t.shift in
    Array.unsafe_set t.chunks c
      (Batch.exchange batch (Array.unsafe_get t.chunks c))
  end
  else begin
    let idx = ref t.head in
    for _ = 1 to n do
      ignore (Batch.add batch (Array.unsafe_get (chunk t !idx) (!idx land t.mask)));
      idx := wrap t.cap (!idx + 1)
    done
  end;
  t.head <- wrap t.cap (t.head + n);
  t.len <- t.len - n;
  t.pops <- t.pops + n;
  n

let length t = t.len
let capacity t = t.cap
let depth_hwm t = t.depth_hwm
let pushes t = t.pushes
let pops t = t.pops
let rejected t = t.rejected

let clear t =
  t.head <- 0;
  t.len <- 0
