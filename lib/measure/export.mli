(** Machine-readable export of traces, series and histograms.

    Produces the stable [vini.metrics/1] JSON schema consumed by CI (the
    [BENCH_METRICS.json] artifact that [vini deter --metrics-out] writes)
    and by anything downstream that wants artifact-grade measurements:

    {v
    { "schema": "vini.metrics/1",
      "series":     [ {"name", "kind": "gauge"|"counter",
                       "points": [[t_s, value], ...]} ],
      "histograms": [ {"name", "count", "sum", "mean", "min", "max",
                       "p50", "p95", "p99",
                       "buckets": [[lower, upper, count], ...]} ],
      "trace":      { "capacity", "overwritten",
                      "events": [ {"t", "category", "severity",
                                   "component", ...payload}, ... ] } }
    v}

    The module carries its own small JSON tree, printer and parser (the
    repository has no JSON dependency), so exports round-trip in-process
    for tests. *)

type json = Vini_std.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact JSON.  Non-finite floats degrade: NaN to [null], infinities to
    [±1e999] (which parse back as infinities). *)

val of_string : string -> (json, string) result

val member : string -> json -> json option
val to_list : json -> json list option
val to_float : json -> float option
val to_str : json -> string option

val schema_version : string

val document :
  ?trace:Vini_sim.Trace.t -> ?extra:(string * json) list -> Timeline.t -> json
(** The full schema above: the sampler's series and histograms, plus the
    trace when given and any [extra] top-level fields. *)

val spans_schema_version : string

val spans_document :
  ?worst:int ->
  ?profile:Vini_sim.Profile.t ->
  ?timeline:Timeline.t ->
  ?extra:(string * json) list ->
  Vini_sim.Span.t ->
  json
(** The [vini.spans/1] flight-recorder document — simultaneously a Chrome
    trace-event JSON object loadable in Perfetto / chrome://tracing.

    [profile] appends the runtime profiler's element attribution: an
    ["element_profile"] array (class, packets, self_s, total_s) and a
    ["collapsed"] array of flamegraph-loadable ["a;b;c µs"] stack lines.
    [timeline] adds one Perfetto counter track per sampler series as
    ["C"] trace events.  Both default to
    absent, leaving the document unchanged:

    {v
    { "schema": "vini.spans/1",
      "displayTimeUnit": "ms",
      "recorder":    {"capacity", "retained", "overwritten"},
      "traceEvents": [ hops as "X" complete events (ts/dur in µs,
                       tid = provenance id, cat = attribution),
                       origins and drops as "i" instants ],
      "breakdown":   [ {"attribution", "hops", "total_s", "mean_s",
                        "p95_s"} per category ],
      "breakdown_by_origin": [ {"origin", "rows": [...]} per flow ],
      "drops":       [ {"orig", "pkt", "site", "reason", "bytes", "t_s",
                        "path": [origin/hop steps so far]} ],
      "worst_paths": [ {"orig", "origin", "total_s", "dropped",
                        "hops": [...]} top-[worst] by latency ] }
    v} *)

val embed_schema_version : string

type embed_slice = {
  es_name : string;
  es_vtopo : Vini_topo.Graph.t;
  es_request : Vini_embed.Request.t;
  es_result :
    (Vini_embed.Embed.mapping, Vini_embed.Embed.rejection) result;
}

type embed_migration = {
  mg_vnode : int;
  mg_from : int;
  mg_to : int;
  mg_kind : string;      (** ["planned"] | ["crash"] *)
  mg_down_s : float;     (** machine-death (or flip) instant, seconds *)
  mg_restored_s : float; (** replacement-takeover instant, seconds *)
  mg_cutover_loss : int option;
      (** planned moves: packets lost across the cutover (zero in steady
          state); [None] (JSON [null]) for crash-driven moves *)
  mg_stretch_before : float;  (** path stretch before/after the move *)
  mg_stretch_after : float;
  mg_balance_before : float;
      (** max per-node substrate stress before/after the move *)
  mg_balance_after : float;
}

val embed_document :
  ?migrations:embed_migration list ->
  substrate:Vini_embed.Substrate.t ->
  slices:embed_slice list ->
  unit ->
  json
(** The [vini.embed/1] document: per-slice mapping (or structured
    rejection), per-physical-node and per-physical-link stress,
    residual-capacity histogram, admission acceptance counters, and
    migration history with per-move downtime:

    {v
    { "schema": "vini.embed/1",
      "substrate":  {"nodes", "links"},
      "slices":     [ {"name", "algo", "seed", "status": "mapped",
                       "nodes":  [{"vnode","vname","pnode","pname","cpu"}],
                       "vlinks": [{"va","vb","bw","path","stretch"}],
                       "mean_stretch"}
                    | {..., "status": "rejected",
                       "rejection": {"kind", "detail"}} ],
      "pnode_stress": [{"pnode","pname","capacity","used","residual"}],
      "plink_stress": [{"a","b","capacity","used","residual"}],
      "residual_histogram": [[lo, hi, count], ...],
      "acceptance": {"admitted", "rejected", "rate"},
      "migrations": [{"vnode","from","to","down_s","restored_s",
                      "downtime_s"}] }
    v} *)

val write : path:string -> json -> unit

(** {2 The [vini.scenario/1] document} *)

val scenario_document :
  ?name:string ->
  ?fluid:Vini_scenario.Fluid.t ->
  ?under:Vini_phys.Underlay.t ->
  substrate:Vini_topo.Graph.t ->
  workload:Vini_scenario.Workload.params ->
  unit ->
  json
(** Snapshot of an Internet-scale scenario run: the substrate summary
    (label, size, mean delay), the workload parameters with their derived
    aggregate rates, the fluid model's conservation totals and per-link
    load table ({!Vini_scenario.Fluid.to_json}), and — with [?under] —
    the packet side's per-plink counters (bytes serialised, background
    drops) for fluid-vs-packet comparison.  Deterministic field and row
    order; the CI exports job checks its conservation totals. *)
