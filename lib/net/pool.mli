(** Preallocated packet freelist for the batched data plane.

    The batched forwarding path ({!Vini_click.Element.push_batch}) keeps
    steady-state forwarding free of minor-heap allocation: sources draw
    packets from a pool instead of constructing fresh records, and sinks
    return them with {!recycle} when a packet is delivered or dropped.
    Between [take] and [recycle] the packet has exactly one owner — the
    element currently holding it — and that owner either pushes it
    downstream (transferring ownership) or recycles it.  Recycling a
    packet that some queue still references is the pool analogue of a
    use-after-free; the ownership rules are spelled out in DESIGN.md §15.

    {b Immutability makes recycling safe.}  {!Packet.t} is an immutable
    record, so "recycling" returns the {e reference} for reuse — there is
    no buffer to scribble over, and a recycled-too-early packet yields a
    stale-delivery bug, never memory corruption.  Transforming elements
    (TTL decrement, encapsulation, {!Packet.corrupted}) allocate a fresh
    record; when the transformed copy reaches the sink it is recycled
    {e in place of} the original, which becomes garbage — the pool's
    population stays at [capacity], and a chain with transforms allocates
    one record per transform, not per hop.

    {b Exhaustion is deterministic degradation, not failure.}  When the
    freelist is empty {!take_opt} returns [None] (and {!take} raises
    {!Exhausted}); the source skips that packet slot and the
    {!exhaustions} counter records it.  A pool drained mid-burst
    therefore shrinks the burst rather than crashing, and the count is a
    pure function of the schedule. *)

type t

exception Exhausted
(** Raised by {!take} on an empty freelist.  Preallocated — raising it
    allocates nothing. *)

val create : capacity:int -> mint:(int -> Packet.t) -> unit -> t
(** [create ~capacity ~mint ()] preallocates [capacity] packets by
    calling [mint 0 .. mint (capacity-1)] once, up front.  All later
    {!take}/{!recycle} traffic works in the preallocated freelist and
    allocates nothing.  @raise Invalid_argument when [capacity < 1]. *)

val take : t -> Packet.t
(** Pop a packet from the freelist.  Allocation-free.
    @raise Exhausted when the pool is empty. *)

val take_opt : t -> Packet.t option
(** [Some] variant of {!take} for callers off the hot path (the returned
    option is a fresh allocation). *)

val recycle : t -> Packet.t -> unit
(** Return a packet to the freelist.  The caller must own it — nothing
    downstream may still hold it.  Accepts any packet record, not just
    minted ones (see the transform discussion above); a recycle that
    would overfill the pool (more recycles than takes — a double-recycle
    bug) is counted in {!overfills} and ignored rather than trusted. *)

val available : t -> int
(** Packets currently in the freelist. *)

val low_watermark : t -> int
(** Fewest free packets ever observed — how close the pool has come to
    exhaustion (0 = it ran dry at least once).  Monotone non-increasing,
    starts at [capacity]; deterministic per seed. *)

val capacity : t -> int
val takes : t -> int

val exhaustions : t -> int
(** Failed {!take}/{!take_opt} calls: how often a burst found the pool
    dry.  Deterministic per seed. *)

val overfills : t -> int
(** Ignored {!recycle} calls that found the freelist already full. *)
