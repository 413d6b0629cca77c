(** The discrete-event simulation engine every experiment runs on.

    One event queue ({!Vini_std.Eventq}, a hole-based binary min-heap of
    timestamped callbacks whose sift loops move only ints) and one clock, driven by one OCaml domain.
    Links, CPU schedulers, routing timers, TCP retransmissions, the fluid
    background model and the measurement samplers are all events on the
    same engine, so an entire VINI deployment — physical substrate plus
    every slice — advances on one logical clock, and a seed fixes the
    whole run.  There is no second runtime: one engine per experiment
    (DESIGN.md §13).

    {b Complexity.}  {!at}/{!after} and {!step} are O(log pending);
    the queue's O(1) [min_key] feeds the {!at_inline} fast path, which
    runs already-due tail calls without touching the queue at all.
    {!pending} is O(1) via a live-event counter maintained on
    schedule/cancel/fire.  Cancelled events are deleted lazily and swept
    out in bulk once they outnumber live ones, so cancel-heavy workloads
    stay cheap too.

    {b Determinism.}  Events fire in (timestamp, scheduling order):
    same-timestamp events drain strictly FIFO, exactly as with the
    binary-heap and calendar queues before this one, so seeded runs are
    bit-identical to theirs and across hosts. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : ?seed:int -> unit -> t
(** A fresh engine at time zero with an empty queue.  [seed] (default 42)
    initialises the root RNG from which subsystems {!Vini_std.Rng.split}
    their own streams.  The engine also becomes the {!Trace} clock. *)

val now : t -> Time.t
val rng : t -> Vini_std.Rng.t

val at : t -> Time.t -> (unit -> unit) -> handle
(** Schedule at an absolute time (>= now, else it fires immediately at the
    current time).  O(log pending). *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** Schedule at [now + delta]; negative deltas clamp to now. *)

val at_inline : t -> Time.t -> (unit -> unit) -> unit
(** Breath coalescing: like {!at}, but when the requested time is provably
    {e next} in the event order — at or before the run limit and strictly
    earlier than every queued event — the callback executes immediately
    with the clock advanced, skipping the queue entirely.
    Otherwise it degrades to {!at}.

    The inline execution is indistinguishable from the scheduled one:
    same callback order, same clocks, same RNG draw order, same
    {!events_fired} count — a seeded run is byte-identical whether
    coalescing triggers or not (asserted by tests and the CI determinism
    gate).  What changes is cost: a burst of back-to-back packets flows
    through CPU-service and kernel hops as one queued event, the way a
    Snabb breath pushes a whole batch through an app graph.

    {b Tail position only.}  The caller must invoke this as the last
    action of the currently-executing event callback (or of setup code
    outside any run, where it always degrades to {!at}): statements after
    the call would otherwise be reordered {e after} the event.  There is
    no handle — an inline-eligible event cannot be cancelled.

    Inlining is disabled under {!set_profiling}, so per-event histograms
    keep their meaning. *)

val after_inline : t -> Time.t -> (unit -> unit) -> unit
(** [at_inline] at [now + delta]; negative deltas clamp to now. *)

val events_inlined : t -> int
(** How many fired events were coalesced inline (subset of
    {!events_fired}) — the breath model's effectiveness metric. *)

val cancel : handle -> unit
(** Idempotent; cancelling a fired event is a no-op.  O(1): the event is
    lazily deleted — it stays queued (and counted by {!max_pending}) until
    popped or swept by the periodic compaction. *)

val is_cancelled : handle -> bool

val every : t -> ?start:Time.t -> ?jitter:Time.t -> Time.t ->
  (unit -> bool) -> unit
(** [every t ~start ~jitter period f] runs [f] at [start] (default: one
    period from now) and re-schedules while [f] returns [true].  Each firing
    is offset by a uniform random amount in [\[0, jitter\]] (default none) to
    avoid phase-locked protocol timers. *)

val run : ?until:Time.t -> t -> unit
(** Drain events in timestamp order.  With [until], stops once the next
    event would be later than [until] and advances the clock to [until].
    The loop itself allocates nothing per event: it tests the queue's
    [min_key] and pops with {!Vini_std.Eventq.pop_exn}. *)

val step : t -> bool
(** Pop the earliest queued event and fire it, or discard it if it was
    cancelled; [false] when the queue was empty.  Allocation-free. *)

val pending : t -> int
(** Number of scheduled (uncancelled, unfired) events.  O(1): maintained
    as a counter, not recomputed from the queue. *)

val events_fired : t -> int
(** Total callbacks executed so far (engine throughput metric). *)

val events_cancelled : t -> int
(** Cancelled events removed from the queue so far, whether popped
    individually or swept in bulk by the lazy-delete compaction. *)

val max_pending : t -> int
(** High-water mark of the event queue, cancelled entries included. *)

(** {2 Profiling}

    Off by default; when on, every [at] records the scheduling horizon and
    every callback its host CPU cost.  The only cost when off is one
    boolean test per event. *)

val set_profiling : t -> bool -> unit

val horizon_hist : t -> Vini_std.Histogram.t
(** How far ahead of the clock events are scheduled (simulated seconds) —
    a deterministic picture of timer granularity across the deployment. *)

val callback_hist : t -> Vini_std.Histogram.t
(** Host CPU seconds per callback ([Sys.time] resolution; export-only,
    not deterministic across hosts). *)
