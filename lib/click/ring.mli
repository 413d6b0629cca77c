(** Fixed-capacity single-producer/single-consumer packet ring — the link
    between a packet source and the scheduler event that drains it in
    bursts.

    A bounded circular buffer with explicit backpressure (a full ring
    refuses the push and the producer counts the drop), specialised to
    packets and extended with a batch drain:
    {!pop_into} moves up to [max] packets into a {!Batch} in FIFO order
    with no per-packet allocation, which is how a breath begins.

    Producer and consumer are synchronised externally — on the
    deterministic engine both run in the same domain, interleaved by the
    event loop — so the ring is plain mutable state with no atomics. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val push : t -> Vini_net.Packet.t -> bool
(** Append in FIFO position; [false] when full (the packet was not
    enqueued — the producer owns it still, and typically drops it or
    recycles it to its pool). *)

val pop : t -> Vini_net.Packet.t option

val pop_into : t -> Batch.t -> max:int -> int
(** [pop_into t batch ~max] appends up to [max] packets (bounded also by
    the batch's free capacity) into [batch] in FIFO order and returns how
    many moved.  Allocation-free.  When the burst fills an empty batch
    whose capacity is the ring's chunk size (64 for a capacity divisible
    by 64) and starts on a chunk boundary, the batch and the ring swap
    arrays ({!Batch.exchange}) instead of copying; the packets and their
    order are the same either way. *)

val length : t -> int
val capacity : t -> int

val depth_hwm : t -> int
(** Deepest the ring has ever been — the backlog watermark a capacity
    choice is judged against.  Monotone non-decreasing; deterministic
    per seed. *)

val pushes : t -> int
(** Accepted pushes. *)

val pops : t -> int
(** Packets removed, via {!pop} or {!pop_into}. *)

val rejected : t -> int
(** Pushes refused because the ring was full (the producer kept the
    packet; typically a counted drop). *)

val clear : t -> unit
(** Drop all queued packets (references retained until overwritten). *)
