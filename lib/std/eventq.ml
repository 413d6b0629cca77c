(* An array-based binary min-heap ordered by (key, seq), specialised for
   the simulation engine's event queue.  At the queue depths a VINI
   deployment sustains (tens to a few hundred pending events) the heap's
   ~log2 n integer compares beat the calendar queue it replaced, and
   [min_key] — the breath-coalescing test the engine runs on every
   inline-eligible schedule — is a single array load.

   Layout: the heap itself is three parallel [int] arrays — [keys],
   [seqs], and [slots], the index of each entry's value in [vals].  The
   values never move: a push stores its value in a free slot, a pop
   writes [dummy] back into the popped slot and returns the slot to the
   [free] stack.  So [sift_up]/[sift_down] move only immediates and never
   hit the write barrier; a push and a pop cost one [caml_modify] each,
   instead of one per heap level as when the boxed values travelled with
   their keys.  Neither allocates outside array growth.

   Slot invariant: the occupied slots and the [free] stack together are
   exactly [0, size + nfree), so when the stack is empty the next free
   slot is [size], and a full heap ([size] = capacity) has no free slot.

   Determinism: entries carry an insertion sequence number and the heap
   orders by (key, seq), so pop order is exactly FIFO within a timestamp
   — bit-identical to the calendar and binary-heap schedulers before it.
   Keys clamp to [0, max_int/2]; clamping preserves (key, seq) order. *)

type 'a t = {
  mutable keys : int array; (* heap position -> key *)
  mutable seqs : int array; (* heap position -> insertion seq *)
  mutable slots : int array; (* heap position -> index into [vals] *)
  mutable vals : 'a array; (* slot -> value; [dummy] when free *)
  mutable free : int array; (* stack of free slots below [size + nfree] *)
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a; (* fills vacated slots so the heap never pins dead values *)
}

let max_key = max_int / 2
let clamp_key key = if key < 0 then 0 else if key > max_key then max_key else key

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.make capacity 0;
    vals = Array.make capacity dummy;
    free = Array.make capacity 0;
    nfree = 0;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Only called when full, so the free stack is empty and every slot below
   the old capacity is occupied. *)
let grow t =
  let cap = Array.length t.keys in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.vals <- extend t.vals t.dummy;
  t.free <- Array.make (2 * cap) 0

(* Hole-based sift: carry the moving entry (key [k], seq [s], slot [v])
   in registers and shift blocking entries into the hole, one move per
   level instead of a three-array swap.  All three arrays hold ints, so
   no move pays the write barrier. *)
let sift_up t i k s v =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys p in
    if pk > k || (pk = k && Array.unsafe_get seqs p > s) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set slots !i v

let sift_down t i k s v =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let m =
        if r < n then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let mk = Array.unsafe_get keys m in
      if mk < k || (mk = k && Array.unsafe_get seqs m < s) then begin
        Array.unsafe_set keys !i mk;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs m);
        Array.unsafe_set slots !i (Array.unsafe_get slots m);
        i := m
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set slots !i v

let push t ~key value =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  let slot =
    if t.nfree = 0 then i
    else begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
  in
  t.vals.(slot) <- value;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.size <- i + 1;
  sift_up t i (clamp_key key) s slot

(* [max_int] when empty: no clamped key can reach it, so the engine's run
   loops use it as an unambiguous "nothing pending" sentinel. *)
let min_key t = if t.size = 0 then max_int else t.keys.(0)

let peek t = if t.size = 0 then None else Some t.vals.(t.slots.(0))

let release t slot =
  t.vals.(slot) <- t.dummy;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let pop_exn t =
  if t.size = 0 then invalid_arg "Eventq.pop_exn: empty queue";
  let slot = t.slots.(0) in
  let v = t.vals.(slot) in
  release t slot;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.keys.(n) t.seqs.(n) t.slots.(n);
  v

let pop t = if t.size = 0 then None else Some (pop_exn t)

(* Drop entries whose value satisfies [dead], then restore the heap
   property bottom-up.  Pop order over the survivors is unchanged: it is
   determined by the (key, seq) comparator, not the array layout. *)
let compact t ~dead =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.slots.(i) in
    if dead t.vals.(slot) then release t slot
    else begin
      t.keys.(!kept) <- t.keys.(i);
      t.seqs.(!kept) <- t.seqs.(i);
      t.slots.(!kept) <- slot;
      incr kept
    end
  done;
  let removed = t.size - !kept in
  t.size <- !kept;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.keys.(i) t.seqs.(i) t.slots.(i)
  done;
  removed

let clear t =
  Array.fill t.vals 0 (t.size + t.nfree) t.dummy;
  t.size <- 0;
  t.nfree <- 0

let iter t f =
  for i = 0 to t.size - 1 do
    f t.vals.(t.slots.(i))
  done
