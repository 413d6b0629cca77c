(** Bounded single-producer/single-consumer message ring.

    The cross-shard handoff channel of the sharded runtime
    ([Vini_sim.Shard] + [Vini_sim.Coordinator]): each shard owns
    one outbox per peer, fills it while executing a window, and the
    coordinator drains every outbox at the barrier in deterministic
    (source shard id, push order) sequence.  The ring itself is plain
    mutable state — the producer and consumer are synchronised externally
    by the coordinator's barrier (mutex hand-off), so no atomics are
    needed and a drain is a straight array walk.

    Capacity is fixed at creation: a full mailbox refuses the push, which
    the shard runtime turns into a hard error rather than silently
    reordering or dropping a cross-shard event (backpressure must be
    explicit to keep runs reproducible). *)

type 'a t

val create : capacity:int -> 'a t
(** Fixed-capacity ring.  @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Append in FIFO position; [false] when the mailbox is full (the value
    was not enqueued). *)

val pop : 'a t -> 'a option
(** Remove the oldest message; [None] when empty. *)

val drain : 'a t -> ('a -> unit) -> int
(** Pop every message in FIFO order into the callback; returns how many
    were delivered.  Messages pushed by the callback itself are drained
    too (the coordinator never does this, but the semantics are exact). *)

val length : 'a t -> int
val capacity : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drop all queued messages. *)
