(** Invariant watchdog for a running IIAS overlay.

    Periodically sweeps the data plane for conditions that should never
    persist in a converged network:

    - {b loop} — following FIBs hop-by-hop towards a destination revisits
      nodes past a TTL budget (a simulated TTL-limited probe);
    - {b blackhole} — a pair of live virtual nodes that the up-link/live-node
      virtual graph still connects stays unreachable longer than the grace
      period (transient unreachability during reconvergence is expected);
    - {b fib-consistency} — a RIB best route missing from the node's Click
      FIB (e.g. a restart that failed to reinstall routes).

    Violations are kept in-process, emitted as [Watchdog_check] trace
    events (category [Watchdog], severity [Warn]) when a sink listens, and
    serialize to JSON for experiment reports.  The watchdog draws no
    randomness and schedules with no jitter, so adding one to a run
    changes no packet-level result. *)

type t

type violation = {
  v_at : Vini_sim.Time.t;
  v_check : string;   (** ["loop"] | ["blackhole"] | ["fib-consistency"] *)
  v_detail : string;
}

val create :
  engine:Vini_sim.Engine.t ->
  overlay:Vini_overlay.Iias.t ->
  vtopo:Vini_topo.Graph.t ->
  ?grace:Vini_sim.Time.t ->
  ?migration_aware:bool ->
  unit ->
  t
(** Default: sweep every 1 s, blackhole grace 15 s (past the paper's 10 s
    OSPF dead interval plus SPF hold-down).

    [migration_aware] (default [true]) suppresses alarms attributable to
    a vnode inside its planned-migration cutover window
    ({!Vini_overlay.Iias.migration_grace}): its FIB is deliberately
    frozen between the flip and drain-complete, so fib-consistency
    checks on it skip, probes crossing it are inconclusive rather than
    loops/blackholes, and its pending unreachability clocks are purged.
    Pass [false] to observe the pre-suppression behaviour (the watchdog
    then alarms on planned cutovers — regression-tested). *)

val start : t -> unit
(** Begin sweeping (first sweep one period from now).  Idempotent.
    @raise Invalid_argument after {!stop}. *)

val stop : t -> unit
(** Stop sweeping permanently. *)

val sweep : t -> unit
(** Run one sweep immediately (tests; also counted in {!sweeps}). *)

val violations : t -> violation list
(** Chronological. *)

val violation_count : t -> int
val sweeps : t -> int

val counts_by_check : t -> (string * int) list
(** Violation totals per check name, sorted by name. *)

val json : t -> Export.json
(** [{ sweeps; violation_count; by_check; violations }] — embedded in
    experiment reports and written by [vini run --report-out]. *)
