(** One shard of the sharded discrete-event runtime.

    A shard owns a {!Vini_std.Eventq} event queue (the same binary
    min-heap as {!Engine}), a clock, a seeded RNG stream and one bounded
    outbox ({!Vini_std.Mailbox}) per peer shard.
    Shards never touch each other's state directly: the only cross-shard
    channel is {!post}, whose messages are delivered by the
    {!Coordinator} at window barriers, in (source shard id, push order)
    sequence.

    {b The shard-confinement contract.}  Event callbacks scheduled on a
    shard may read and write state owned by that shard only, plus the
    shard handle itself ({!at}, {!after}, {!cancel}, {!post}, {!rng}).
    They must not touch another shard's state, nor process-global
    singletons (the {!Trace} sink, the {!Span} recorder).  Under this
    contract the {!Coordinator} may execute different shards on different
    OCaml domains with no locks and no observable difference from the
    single-domain schedule — that is what makes seeded runs byte-identical
    at any domain count.

    {b Determinism.}  Within a shard, events fire in (time, scheduling
    order), exactly like {!Engine}.  Cross-shard messages are sequenced at
    barriers, so their arrival order is a pure function of the event
    timeline, never of domain scheduling. *)

type t

type handle
(** A locally scheduled event; may be cancelled before it fires. *)

type remote
(** A cross-shard post, cancellable by the shard that posted it
    ({!cancel_post}) until it fires. *)

val make :
  id:int ->
  nshards:int ->
  mailbox_capacity:int ->
  lookahead:(int -> int -> Time.t option) ->
  rng:Vini_std.Rng.t ->
  t
(** Used by {!Coordinator.create}; not normally called directly.
    [lookahead src dst] is the minimum cross-shard latency (the
    conservative-synchronisation window), [None] when [src] has no
    channel to [dst]. *)

val id : t -> int
val now : t -> Time.t
val rng : t -> Vini_std.Rng.t

val at : t -> Time.t -> (unit -> unit) -> handle
(** Schedule on this shard at an absolute time (>= now, else clamped to
    now).  O(log pending). *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** Schedule at [now + delta]; negative deltas clamp to now. *)

val cancel : handle -> unit
(** Idempotent lazy delete, exactly as {!Engine.cancel}: the entry stays
    queued until popped or swept by compaction, and the live-event
    counter is decremented immediately. *)

val is_cancelled : handle -> bool

val post : t -> dst:int -> Time.t -> (unit -> unit) -> remote
(** [post t ~dst time f] schedules [f] on shard [dst] at absolute time
    [time].  Conservative synchronisation requires
    [time >= now t + lookahead (id t) dst]; violations raise
    [Invalid_argument] (they would allow an event to arrive in a peer's
    past).  Raises [Failure] when the bounded outbox to [dst] is full.
    The message is handed over at the next window barrier. *)

val post_after : t -> dst:int -> Time.t -> (unit -> unit) -> remote
(** [post_after t ~dst delta f] is [post t ~dst (now t + delta) f]. *)

val cancel_post : t -> remote -> unit
(** Cancel a cross-shard post.  Only the shard that posted it may cancel
    it (the cancellation travels to the owning shard at the next
    barrier, so the destination's live-event accounting stays exact
    whether the post was already delivered or not).  Idempotent; a no-op
    once the remote event has fired. *)

val post_is_cancelled : remote -> bool

val pending : t -> int
(** Scheduled-but-unfired events owned by this shard, cross-shard
    deliveries included once they arrive.  O(1) counter. *)

val events_fired : t -> int
val events_cancelled : t -> int
val posts_sent : t -> int

(** {2 Coordinator interface}

    The calls below are made only between windows (by the coordinator, on
    one domain); they are not part of the callback-facing API. *)

val next_time : t -> Time.t option
(** Earliest queued entry (cancelled entries included — using a stale
    time for the horizon only shrinks the window, never breaks safety). *)

val exec_window : t -> bound:Time.t -> limit:Time.t option -> unit
(** Fire every local event with [time < bound] (and [time <= limit] when
    given) in (time, seq) order, advancing the clock.  Events scheduled
    by callbacks inside the window are included when they fall inside it. *)

val advance_clock : t -> Time.t -> unit
(** Raise the clock to the given instant if it is ahead (end-of-run
    [~until] semantics). *)

val outbox : t -> int -> remote Vini_std.Mailbox.t
val deliver : t -> remote -> unit
(** Barrier delivery of one inbound post: schedules it locally (skipped,
    and accounted as cancelled, when the poster already cancelled it). *)

val take_cancel_requests : t -> remote list
(** Cancellations issued by this shard since the last barrier, in issue
    order; the coordinator applies each to the owning shard. *)

val apply_remote_cancel : remote -> unit
(** Apply a cancellation to a delivered post (owner side). *)
