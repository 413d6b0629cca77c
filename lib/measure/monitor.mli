(** The metrics registry — periodic gauge/counter sampling plus registered
    latency histograms, the "collect traces of the experiment" facility
    §6.2 asks for (typed event traces live in {!Vini_sim.Trace}).

    Named gauges and counters (any [unit -> float]) are sampled on a fixed
    period into time series; counters are declared monotone so {!rate} and
    the exporter can treat decreases as counter resets.  Histograms are
    owned by the instrumented subsystem ({!Vini_sim.Engine.callback_hist},
    {!Vini_phys.Cpu.wake_latency_hist}, …) and registered here by name so
    {!Export} can serialize everything in one document. *)

type t

type series_kind = Gauge | Counter

val series_kind_name : series_kind -> string

val create :
  engine:Vini_sim.Engine.t -> ?interval:Vini_sim.Time.t -> unit -> t
(** Sampling starts immediately (default every second) and runs until
    {!stop}. *)

val gauge : t -> name:string -> (unit -> float) -> unit
(** @raise Invalid_argument on duplicate names (counters included). *)

val counter : t -> name:string -> (unit -> float) -> unit
(** Like {!gauge}, but declared monotonically non-decreasing. *)

val histogram : t -> name:string -> Vini_std.Histogram.t -> unit
(** Register an externally-owned histogram under [name].
    @raise Invalid_argument on duplicate names. *)

val names : t -> string list
val histograms : t -> (string * Vini_std.Histogram.t) list

val kind : t -> name:string -> series_kind

val series : t -> name:string -> (float * float) list
(** (sample time s, value) — raw samples, chronological. *)

val rate : t -> name:string -> (float * float) list
(** Per-second first difference of a cumulative series.  A decrease is
    treated as a counter reset (the increase since reset is the new value),
    so rates never go negative on restarts. *)

val stop : t -> unit

(** {2 Prewired instrumentation} *)

val watch_vnode : t -> Vini_overlay.Iias.vnode -> prefix:string -> unit
(** Registers [<prefix>.cpu_s], [<prefix>.forwarded], [<prefix>.delivered],
    [<prefix>.sock_drops], [<prefix>.fib_cache_hits/_misses],
    [<prefix>.fib_memo_hits/_lookups] and [<prefix>.breaths] for an IIAS
    virtual node (all counters). *)

val watch_engine : t -> Vini_sim.Engine.t -> unit
(** [engine.fired], [.cancelled], [.pending], [.max_pending] series and
    the [.horizon_s] / [.callback_s] histograms (enable
    {!Vini_sim.Engine.set_profiling} to populate the histograms). *)

val watch_cpu : t -> prefix:string -> Vini_phys.Cpu.t -> unit
(** [<prefix>.wake_s]: the node scheduler's wake-latency histogram. *)

val watch_tcp : t -> prefix:string -> Vini_transport.Tcp.t -> unit
(** [<prefix>.retransmits], [.bytes_acked] counters and the
    [.cwnd_bytes] histogram of a TCP connection. *)
