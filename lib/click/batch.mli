(** A reusable burst of packets — the unit of work on the batched data
    plane.

    A batch is a fixed-capacity packet array plus a length, owned by
    whoever is driving the burst (a scheduler event, a bench loop, a
    test).  The driver fills it (from a {!Ring}, a pool-backed source, or
    {!add}), pushes it through an element chain with
    {!Element.push_batch}, then {!clear}s and refills it — the array is
    reused for every burst, so batching itself allocates nothing after
    construction.

    {b Ownership.}  The packets in a batch belong to the chain while
    [push_batch] runs: an element may consume them (deliver, drop,
    recycle to a {!Vini_net.Pool}), replace them in place (a filtering or
    corrupting element), or hand the whole batch downstream.  After
    [push_batch] returns the driver owns the (possibly filtered) batch
    again and must [clear] before refilling; slots beyond [length] are
    stale and must never be read. *)

type t

val create : capacity:int -> t
(** A batch able to hold up to [capacity] packets.  The backing array is
    allocated here, once; every later operation is allocation-free.
    @raise Invalid_argument when [capacity < 1]. *)

val add : t -> Vini_net.Packet.t -> bool
(** Append a packet; [false] (packet not added) when the batch is full. *)

val get : t -> int -> Vini_net.Packet.t
(** [get t i] is the [i]-th packet, [0 <= i < length t].  Reading beyond
    [length t] is a programming error; this raises [Invalid_argument]. *)

val set : t -> int -> Vini_net.Packet.t -> unit
(** Replace packet [i] in place — how a corrupting element swaps a frame
    for its damaged copy without disturbing the rest of the burst.
    @raise Invalid_argument when [i] is outside [0, length t). *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] packets — the compaction step of
    an in-place filter.  @raise Invalid_argument when [n > length t]. *)

val unsafe_get : t -> int -> Vini_net.Packet.t
val unsafe_set : t -> int -> Vini_net.Packet.t -> unit
(** Unchecked slot access for loops that already iterate [0, length t) —
    the batched fast paths in this library.  Out-of-range access is
    undefined behaviour; prefer {!get}/{!set} everywhere else. *)

val bytes : t -> int
(** Summed {!Vini_net.Packet.size} of the packets in [0, length t).
    Cached: a burst crossing a chain of elements is summed once, not
    once per element. *)

val exchange : t -> Vini_net.Packet.t array -> Vini_net.Packet.t array
(** [exchange t full] makes [full] the batch's storage, every slot a
    packet ([length t = Array.length full]), and returns the array it
    replaced for the caller to reuse.  This is how {!Ring.pop_into} hands
    over a whole burst without copying it.  The caller must hold no other
    reference to [full] that it still writes.
    @raise Invalid_argument unless [t] is empty and
    [Array.length full = capacity t]. *)

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empty the batch (length 0).  Slot references are retained until
    overwritten — see the retention note on {!Vini_std.Fifo}. *)

val iter : t -> (Vini_net.Packet.t -> unit) -> unit

val filler : Vini_net.Packet.t Lazy.t
(** The throwaway datagram used to seed batch and ring arrays
    ([Array.make] needs a fill value).  Lazy so programs that never
    batch do not consume a packet id.  Internal plumbing — shared so
    only one filler id is ever minted. *)
