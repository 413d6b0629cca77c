(** The engine's event queue: an array-based binary min-heap ordered by
    (key, insertion seq).

    Keys are nanosecond timestamps clamped to [\[0, max_int/2\]], and
    entries with equal keys pop strictly FIFO, so a seeded simulation is
    bit-identical to the calendar and binary-heap queues before this one.
    The heap wins at the queue depths a deployment sustains (tens to a
    few hundred pending events).

    {b Cost.}  The heap arrays hold only ints (key, seq, and the slot of
    each value); values sit still in a slot array recycled through a
    free-slot stack.  {!push} and {!pop_exn} are O(log n) integer compares
    and moves, allocate nothing outside array growth, and pay exactly one
    write barrier each (the push stores its value into a slot, the pop
    writes [dummy] back).  {!min_key} is one array load.  {!pop} and
    {!peek} allocate only their option.

    Not thread-safe; one queue per engine. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills vacated slots so popped values are not pinned against
    the GC; it is never returned.  [capacity] (default 16) is the initial
    array size; the arrays double as needed and never shrink.  A popped,
    compacted or cleared value is not reachable from the queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> 'a -> unit
(** O(log n), allocation-free (outside array growth), one write
    barrier.  Negative keys clamp to 0, keys above [max_int/2] clamp to
    [max_int/2]; clamping preserves (key, seq) order. *)

val min_key : 'a t -> int
(** Key of the earliest entry; [max_int] when empty (no clamped key can
    reach it).  O(1), allocation-free. *)

val peek : 'a t -> 'a option
(** Earliest entry by (key, seq), without removing it. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest entry by (key, seq).  O(log n),
    allocation-free, one write barrier.
    @raise Invalid_argument when the queue is empty. *)

val pop : 'a t -> 'a option
(** {!pop_exn} in an option; [None] when empty.  The option is the only
    allocation. *)

val compact : 'a t -> dead:('a -> bool) -> int
(** Drop entries whose value satisfies [dead]; returns how many were
    removed.  O(n).  Pop order over survivors is unchanged. *)

val clear : 'a t -> unit

val iter : 'a t -> ('a -> unit) -> unit
(** Iterate in unspecified order. *)
