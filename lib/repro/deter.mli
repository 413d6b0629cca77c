(** §5.1.1 — microbenchmark #1, overlay efficiency on dedicated hardware.

    Reproduces Table 2 (TCP throughput, network vs IIAS, with forwarder
    CPU) and Table 3 (flood-ping latency) on the 3-machine DETER chain.
    "Network" runs iperf/ping between the kernel stacks with in-kernel
    forwarding at the middle node; "IIAS" runs them across the overlay's
    tap interfaces with user-space Click forwarding. *)

type tcp_result = {
  mbps_mean : float;
  mbps_stddev : float;
  fwdr_cpu_pct : float;   (** middle node: kernel or Click process *)
}

type ping_result = {
  p_min : float;
  p_avg : float;
  p_max : float;
  p_mdev : float;
  p_loss_pct : float;
}

val network_tcp : ?runs:int -> ?duration_s:int -> ?seed:int -> unit -> tcp_result
val iias_tcp : ?runs:int -> ?duration_s:int -> ?seed:int -> unit -> tcp_result
val network_ping : ?count:int -> ?seed:int -> unit -> ping_result
val iias_ping : ?count:int -> ?seed:int -> unit -> ping_result

val observability_run :
  ?duration_s:int ->
  ?seed:int ->
  ?trace_categories:Vini_sim.Trace.Category.t list ->
  unit ->
  Vini_measure.Export.json * float
(** One fully-instrumented IIAS TCP run on the DETER chain: engine
    profiling on, an 8192-event trace sink installed (default: all
    categories), and a {!Vini_measure.Timeline} sampler watching the
    engine, the forwarder's Click counters, the physical CPU scheduler
    and, from the connection's start, the TCP sender.  Returns the
    [vini.metrics/1] export document (what [vini deter --metrics-out]
    writes; CI keeps it as [BENCH_METRICS.json]) and the measured
    throughput in Mb/s. *)

val spans_run :
  ?duration_s:int ->
  ?seed:int ->
  unit ->
  Vini_measure.Export.json * float
(** The flight-recorder run: same IIAS TCP scenario with a 65,536-span
    recorder installed from t=0 (so routing chatter, the transfer, and four
    deliberately TTL-doomed probes all leave causal trees).  Returns the
    [vini.spans/1] document (with embedded Chrome [traceEvents] and a
    nested [metrics] document) and the measured throughput in Mb/s.
    The document is byte-identical for a given seed (the
    exports CI job runs it twice and compares). *)

val timeline_run :
  ?duration_s:int ->
  ?seed:int ->
  ?interval_ms:int ->
  unit ->
  Vini_measure.Export.json * float
(** The self-observability run: the IIAS TCP scenario with the runtime
    {!Vini_sim.Profile} installed and a {!Vini_measure.Timeline} sampling
    every [interval_ms] (default 200) milliseconds of simulated time.
    The timeline watches the engine, the profiler, the whole overlay and
    the forwarder's Click process, plus a small batched pool-to-ring
    breath loop riding the same engine so pool occupancy, ring depth and
    breath utilization series carry real data.  Returns the
    [vini.timeline/1] document and the measured throughput in Mb/s.
    Like {!spans_run}'s, the document is a function of the seed alone. *)
