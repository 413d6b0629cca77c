(** Conservative parallel discrete-event coordinator over {!Shard}s.

    The coordinator advances a fixed set of logical shards in lockstep
    {e windows}.  Each window:

    + {b Barrier drain} — every outbox is emptied into its destination
      shard in ascending (source shard id, push order); then every
      cross-shard cancellation issued since the last barrier is applied.
      After the drain nothing is in flight, so each shard's earliest
      queued event is its true earliest possible action.
    + {b Horizon fixpoint} — with [h(s)] the earliest queued time of
      shard [s] and [L(p,s)] the lookahead (minimum latency) of the
      [p -> s] channel, the earliest instant shard [s] can possibly act is
      the least fixpoint [ĥ(s) = min(h(s), min_p (ĥ(p) + L(p,s)))] —
      an idle shard can still be awakened transitively.  Computed by
      relaxation over the lookahead graph ([O(S²)] per window; shard
      counts are small).
    + {b Safe bound} — shard [s] may fire every event strictly before
      [bound(s) = min_p (ĥ(p) + L(p,s))]: any future inbound message
      arrives at or after that instant.  Since [L > 0], the shard holding
      the global minimum always has [bound > h], so every window makes
      progress.
    + {b Execute} — shards run their windows with no shared state (the
      {!Shard} confinement contract), distributed round-robin over up to
      [domains] OCaml domains.  Whether the window executes on one domain
      or eight, each shard performs the same event sequence, so a seeded
      run is byte-identical at any domain count.

    Determinism therefore depends only on: fixed shard count, per-shard
    seeded RNG streams, event-queue (time, seq) order, and barrier drains in
    (shard id, seq) order — all independent of physical parallelism. *)

type t

val create :
  ?seed:int ->
  ?mailbox_capacity:int ->
  shards:int ->
  domains:int ->
  lookahead:(int -> int -> Time.t option) ->
  unit ->
  t
(** [create ~shards ~domains ~lookahead ()] builds [shards] logical
    shards executed on [min domains shards] domains.  [lookahead src dst]
    is the minimum latency of the [src -> dst] channel ([None]: no
    channel, posting is forbidden); it is sampled once into a matrix at
    creation and must be positive wherever defined.  Each shard derives
    its own RNG stream from [seed] (default 42), so results do not depend
    on [domains].  [mailbox_capacity] (default 8192) bounds each
    per-pair outbox.

    @raise Invalid_argument on [shards < 1], [domains < 1], or a
    non-positive lookahead. *)

val shard : t -> int -> Shard.t
val nshards : t -> int
val domains : t -> int

val run : ?until:Time.t -> t -> unit
(** Execute windows until every queue is empty, or until the earliest
    remaining event lies beyond [until] (shard clocks then advance to
    [until], mirroring {!Engine.run}).  Re-entrant across calls: pending
    events, in-flight posts and cancellations survive between runs.  An
    exception raised by a callback aborts the run after the current
    window's surviving shards finish, and is re-raised on the calling
    domain. *)

val now : t -> Time.t
(** Globally safe time: the minimum shard clock. *)

val pending : t -> int
(** Live (scheduled, unfired, uncancelled) events across all shards. *)

val events_fired : t -> int
val events_cancelled : t -> int
val posts_sent : t -> int

val windows : t -> int
(** Barrier-synchronised windows executed so far. *)

val messages_delivered : t -> int
(** Cross-shard posts handed over at barriers (cancelled-in-flight posts
    included). *)
