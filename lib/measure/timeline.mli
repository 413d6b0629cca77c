(** The sim-clock sampler: periodic snapshots of named sources plus a
    registry of latency histograms — the "collect traces of the
    experiment" facility §6.2 asks for (typed event traces live in
    {!Vini_sim.Trace}).  It feeds two documents: its own
    [vini.timeline/1] time series behind [vini top] ({!document}), and
    the series and histograms of {!Export.document}'s [vini.metrics/1].

    A sampler reads its series (any [unit -> float]) at a fixed
    simulated-time interval, one row per snapshot:

    {v
    { "schema": "vini.timeline/1",
      "interval_s": 0.2,
      "series":  ["engine.fired", "pool.available", ...],
      "samples": [ [t_s, v0, v1, ...], ... ] }
    v}

    Each row carries the snapshot's simulated time followed by one value
    per series registered by then, in registration order; rows are
    chronological and strictly increasing in time.  A series registered
    after sampling started gets its first point at the next snapshot, so
    its points are the rows long enough to hold it.

    {b Determinism.}  Ticks are {!Vini_sim.Engine.at} events on the
    engine clock — never wall clock — at fixed multiples of the interval,
    so snapshot instants and values are a function of the seed alone: a
    timeline document is byte-identical across runs with the same seed
    (CI-gated).  Series must therefore read only deterministic
    quantities; host-clock data (the engine's callback histogram) lives
    in the histogram registry, which the timeline document leaves out.

    {b Allocation.}  The sampler allocates only at snapshot boundaries
    (one row per snapshot); between ticks it costs nothing, and it never
    touches packet-path hot code ([Gc.minor_words]-asserted). *)

type t

type kind = Gauge | Counter
(** A counter is declared monotonically non-decreasing; [vini.metrics/1]
    prints the kind of every series. *)

val schema_version : string
(** ["vini.timeline/1"] *)

val create :
  engine:Vini_sim.Engine.t -> ?interval:Vini_sim.Time.t -> unit -> t
(** Sampling starts one interval (default 1 s of simulated time) from
    now and runs until {!stop}.
    @raise Invalid_argument when the interval is not positive. *)

val gauge : t -> name:string -> (unit -> float) -> unit
(** Add a series; it joins the next snapshot.
    @raise Invalid_argument on duplicate series names. *)

val counter : t -> name:string -> (unit -> float) -> unit
(** Like {!gauge}, but declared a {!Counter}. *)

val histogram : t -> name:string -> Vini_std.Histogram.t -> unit
(** Register an externally-owned histogram under [name].
    @raise Invalid_argument on duplicate histogram names. *)

val sample_now : t -> unit
(** Take one snapshot immediately.  Used by tests. *)

val stop : t -> unit

(** {2 Prewired sources}

    Every series is deterministic; see the determinism note above. *)

val watch_engine : t -> Vini_sim.Engine.t -> unit
(** [engine.fired], [.inlined], [.cancelled] counters, [.pending],
    [.max_pending] gauges, and the [.horizon_s] / [.callback_s]
    histograms (enable {!Vini_sim.Engine.set_profiling} to populate
    them). *)

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

val watch_vnode : t -> Vini_overlay.Iias.vnode -> prefix:string -> unit
(** [<prefix>.cpu_s], [.forwarded], [.delivered], [.sock_drops],
    [.fib_cache_hits/_misses], [.fib_memo_hits/_lookups] and [.breaths]
    counters of one IIAS virtual node. *)

val watch_cpu : t -> prefix:string -> Vini_phys.Cpu.t -> unit
(** [<prefix>.wake_s]: the node scheduler's wake-latency histogram. *)

val watch_tcp : t -> prefix:string -> Vini_transport.Tcp.t -> unit
(** [<prefix>.retransmits], [.bytes_acked] counters and the
    [.cwnd_bytes] histogram of a TCP connection. *)

val watch_recorder : t -> prefix:string -> Vini_sim.Span.t -> unit
(** Flight-recorder health counters: [<prefix>.records],
    [.overwritten]. *)

val register_breakdown : t -> prefix:string -> Span.tree list -> unit
(** One duration histogram per attribution category
    ([<prefix>.<attribution>_s], {!Span.breakdown}). *)

(** {2 Read side} *)

val nsamples : t -> int

val series : t -> (string * kind * (float * float) list) list
(** Every series with its chronological [(t_s, value)] points, in
    registration order — what [vini.metrics/1] prints and what
    {!Export.spans_document} turns into Perfetto counter tracks. *)

val histograms : t -> (string * Vini_std.Histogram.t) list

val document : ?extra:(string * Vini_std.Json.t) list -> t -> Vini_std.Json.t
(** The [vini.timeline/1] document above, with any [extra] top-level
    fields appended.
    @raise Invalid_argument when the rows are ragged: a series
    registered after the first snapshot leaves earlier rows short. *)
