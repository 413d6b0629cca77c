(** Sim-clock-driven periodic snapshots — the [vini.timeline/1] time
    series behind [vini top].

    A timeline samples a set of named sources (any [unit -> float]) at a
    fixed simulated-time interval and serialises the result as one JSON
    document:

    {v
    { "schema": "vini.timeline/1",
      "interval_s": 0.2,
      "series":  ["engine.fired", "pool.available", ...],
      "samples": [ [t_s, v0, v1, ...], ... ] }
    v}

    Each sample row carries the snapshot's simulated time followed by one
    value per series, in [series] order; rows are chronological and
    strictly increasing in time.

    {b Determinism.}  Ticks are {!Vini_sim.Engine.at} events on the
    engine clock — never wall clock — at fixed multiples of the interval,
    so snapshot instants and values are a function of the seed alone: a
    timeline document is byte-identical across runs with the same seed
    (CI-gated).  Sources must
    therefore read only deterministic quantities: host-clock data (the
    engine's callback histogram) is excluded from the prewired watchers
    by design.

    {b Allocation.}  The sampler allocates only at snapshot boundaries
    (one row per snapshot); between ticks it costs nothing, and it never
    touches packet-path hot code ([Gc.minor_words]-asserted). *)

type t

val schema_version : string
(** ["vini.timeline/1"] *)

val create :
  engine:Vini_sim.Engine.t -> ?interval:Vini_sim.Time.t -> unit -> t
(** Sampling starts one interval (default 1 s of simulated time) from
    now and runs until {!stop}.
    @raise Invalid_argument when the interval is not positive. *)

val register : t -> name:string -> (unit -> float) -> unit
(** Add a series.  The source set freezes at the first snapshot.
    @raise Invalid_argument on duplicate names or after freezing. *)

val sample_now : t -> unit
(** Take one snapshot immediately (freezes the source set).  Used by
    tests and by exporters that want a final row at shutdown. *)

val stop : t -> unit

(** {2 Prewired sources}

    All deterministic; see the determinism note above. *)

val watch_engine : t -> Vini_sim.Engine.t -> unit
(** [engine.fired], [.inlined], [.cancelled], [.pending],
    [.max_pending]. *)

val watch_profile : t -> Vini_sim.Profile.t -> unit
(** [profile.element_packets], [.element_cost_s]. *)

val watch_pool : t -> prefix:string -> Vini_net.Pool.t -> unit
(** [<prefix>.available], [.low_watermark], [.takes], [.exhaustions]. *)

val watch_ring : t -> prefix:string -> Vini_click.Ring.t -> unit
(** [<prefix>.length], [.depth_hwm], [.pushes], [.rejected]. *)

val watch_process : t -> prefix:string -> Vini_phys.Process.t -> unit
(** [<prefix>.packets], [.breaths], [.breath_utilization], [.cpu_s]. *)

val watch_overlay : t -> Vini_overlay.Iias.t -> unit
(** Whole-overlay aggregates: [overlay.forwarded], [.delivered],
    [.no_route], [.fib_memo_hits],
    [.fib_memo_lookups], [.breaths] summed over all vnodes. *)

(** {2 Read side} *)

val nsamples : t -> int

val samples : t -> (float * float array) list
(** Chronological [(t_s, row)] snapshots; rows are copies. *)

val counter_series : t -> (string * (float * float) list) list
(** Per-series [(t_s, value)] points — the shape
    {!Export.spans_document} turns into Perfetto counter tracks. *)

val document : ?extra:(string * Export.json) list -> t -> Export.json
(** The [vini.timeline/1] document above, with any [extra] top-level
    fields appended. *)
