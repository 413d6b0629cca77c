module Trace = Vini_sim.Trace
module Histogram = Vini_std.Histogram

let schema_version = "vini.metrics/1"

(* ---- the JSON tree lives in Vini_std.Json (shared with the scenario
   generator's vini.topo/1 documents); re-exported here so existing
   consumers keep their Export.json view of it. *)

type json = Vini_std.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let to_string = Vini_std.Json.to_string
let of_string = Vini_std.Json.of_string
let member = Vini_std.Json.member
let to_list = Vini_std.Json.to_list
let to_float = Vini_std.Json.to_float
let to_str = Vini_std.Json.to_str

(* ---- the stable export schema ------------------------------------------ *)

let points_json pts = Arr (List.map (fun (t, v) -> Arr [ Num t; Num v ]) pts)

let series_json sampler =
  Arr
    (List.map
       (fun (name, kind, pts) ->
         Obj
           [
             ("name", Str name);
             ( "kind",
               Str (match kind with Timeline.Gauge -> "gauge" | Counter -> "counter")
             );
             ("points", points_json pts);
           ])
       (Timeline.series sampler))

let histogram_json ~name h =
  Obj
    [
      ("name", Str name);
      ("count", Num (float_of_int (Histogram.count h)));
      ("sum", Num (Histogram.sum h));
      ("mean", Num (Histogram.mean h));
      ("min", Num (Histogram.min h));
      ("max", Num (Histogram.max h));
      ("p50", Num (Histogram.percentile h 50.0));
      ("p95", Num (Histogram.percentile h 95.0));
      ("p99", Num (Histogram.percentile h 99.0));
      ( "buckets",
        Arr
          (List.map
             (fun (lo, hi, c) -> Arr [ Num lo; Num hi; Num (float_of_int c) ])
             (Histogram.buckets h)) );
    ]

let histograms_json sampler =
  Arr
    (List.map
       (fun (name, h) -> histogram_json ~name h)
       (Timeline.histograms sampler))

let event_json (ev : Trace.event) =
  let fields =
    match ev.Trace.kind with
    | Trace.Packet_tx { bytes } -> [ ("bytes", Num (float_of_int bytes)) ]
    | Trace.Packet_rx { bytes } -> [ ("bytes", Num (float_of_int bytes)) ]
    | Trace.Packet_drop { reason; bytes } ->
        [ ("reason", Str reason); ("bytes", Num (float_of_int bytes)) ]
    | Trace.Route_update { prefix; action } ->
        [ ("prefix", Str prefix); ("action", Str action) ]
    | Trace.Sched_latency { seconds } -> [ ("seconds", Num seconds) ]
    | Trace.Fault_injected { action } -> [ ("action", Str action) ]
    | Trace.Process_lifecycle { phase; detail } ->
        [ ("phase", Str phase); ("detail", Str detail) ]
    | Trace.Watchdog_check { check; detail } ->
        [ ("check", Str check); ("detail", Str detail) ]
    | Trace.Custom detail -> [ ("detail", Str detail) ]
  in
  Obj
    ([
       ("t", Num (Vini_sim.Time.to_sec_f ev.Trace.time));
       ("category", Str (Trace.Category.name (Trace.category_of_kind ev.Trace.kind)));
       ("severity", Str (Trace.severity_name ev.Trace.severity));
       ("component", Str ev.Trace.component);
     ]
    @ fields)

let trace_json tr =
  (* One engine records in time order, but a sink shared by several
     engines in one process (vini deter's sequence of runs, each starting
     at t=0) is only chronological per run; a stable sort by timestamp
     merges them and is the identity on a single run's ring. *)
  let events =
    List.stable_sort
      (fun a b -> Vini_sim.Time.compare a.Trace.time b.Trace.time)
      (Trace.events tr)
  in
  Obj
    [
      ("capacity", Num (float_of_int (Trace.capacity tr)));
      ("overwritten", Num (float_of_int (Trace.overwritten tr)));
      ("events", Arr (List.map event_json events));
    ]

let document ?trace ?(extra = []) sampler =
  Obj
    ([
       ("schema", Str schema_version);
       ("series", series_json sampler);
       ("histograms", histograms_json sampler);
     ]
    @ (match trace with None -> [] | Some tr -> [ ("trace", trace_json tr) ])
    @ extra)

(* ---- the vini.spans/1 flight-recorder schema ----------------------------

   One document that is simultaneously:
   - the stable [vini.spans/1] schema (breakdown, drops-with-paths,
     worst-path exemplars), and
   - a Chrome trace-event JSON object (the [traceEvents] key), loadable
     directly in Perfetto / chrome://tracing: hops are "X" complete
     events on track [tid = provenance id], origins and drops are "i"
     instants.  Extra top-level keys are ignored by the viewers. *)

let spans_schema_version = "vini.spans/1"

let us t = Vini_sim.Time.to_sec_f t *. 1e6

let span_trace_events trees =
  List.concat_map
    (fun (tr : Span.tree) ->
      let tid = Num (float_of_int tr.Span.tree_orig) in
      let origins =
        List.map
          (fun (o : Span.origin) ->
            Obj
              [
                ("name", Str o.Span.o_component);
                ("cat", Str "origin");
                ("ph", Str "i");
                ("s", Str "t");
                ("ts", Num (us o.Span.o_t));
                ("pid", Num 1.0);
                ("tid", tid);
                ( "args",
                  Obj
                    [
                      ("pkt", Num (float_of_int o.Span.o_pkt));
                      ("bytes", Num (float_of_int o.Span.o_bytes));
                    ] );
              ])
          tr.Span.origins
      in
      let hops =
        List.map
          (fun (h : Span.hop) ->
            Obj
              [
                ("name", Str h.Span.h_component);
                ( "cat",
                  Str (Vini_sim.Span.attribution_name h.Span.h_attribution) );
                ("ph", Str "X");
                ("ts", Num (us h.Span.h_t0));
                ("dur", Num (us h.Span.h_t1 -. us h.Span.h_t0));
                ("pid", Num 1.0);
                ("tid", tid);
                ("args", Obj [ ("pkt", Num (float_of_int h.Span.h_pkt)) ]);
              ])
          tr.Span.hops
      in
      let drops =
        List.map
          (fun (d : Span.drop) ->
            Obj
              [
                ("name", Str (d.Span.d_component ^ "!" ^ d.Span.d_reason));
                ("cat", Str "drop");
                ("ph", Str "i");
                ("s", Str "t");
                ("ts", Num (us d.Span.d_t));
                ("pid", Num 1.0);
                ("tid", tid);
                ( "args",
                  Obj
                    [
                      ("pkt", Num (float_of_int d.Span.d_pkt));
                      ("reason", Str d.Span.d_reason);
                      ("bytes", Num (float_of_int d.Span.d_bytes));
                    ] );
              ])
          tr.Span.drops
      in
      origins @ hops @ drops)
    trees

let span_row_json (r : Span.row) =
  let pct p =
    if Histogram.count r.Span.hist = 0 then 0.0
    else Histogram.percentile r.Span.hist p
  in
  Obj
    [
      ( "attribution",
        Str (Vini_sim.Span.attribution_name r.Span.attribution) );
      ("hops", Num (float_of_int r.Span.hop_count));
      ("total_s", Num r.Span.total_s);
      ( "mean_s",
        Num
          (if r.Span.hop_count = 0 then 0.0
           else r.Span.total_s /. float_of_int r.Span.hop_count) );
      ("p95_s", Num (pct 95.0));
    ]

let span_path_step_json = function
  | Span.At_origin (o : Span.origin) ->
      Obj
        [
          ("kind", Str "origin");
          ("component", Str o.Span.o_component);
          ("pkt", Num (float_of_int o.Span.o_pkt));
          ("t_s", Num (Vini_sim.Time.to_sec_f o.Span.o_t));
        ]
  | Span.Through (h : Span.hop) ->
      Obj
        [
          ("kind", Str "hop");
          ("component", Str h.Span.h_component);
          ( "attribution",
            Str (Vini_sim.Span.attribution_name h.Span.h_attribution) );
          ("pkt", Num (float_of_int h.Span.h_pkt));
          ("t0_s", Num (Vini_sim.Time.to_sec_f h.Span.h_t0));
          ("t1_s", Num (Vini_sim.Time.to_sec_f h.Span.h_t1));
        ]

let span_forensic_json (f : Span.forensic) =
  Obj
    [
      ("orig", Num (float_of_int f.Span.f_orig));
      ("pkt", Num (float_of_int f.Span.f_pkt));
      ("site", Str f.Span.f_site);
      ("reason", Str f.Span.f_reason);
      ("bytes", Num (float_of_int f.Span.f_bytes));
      ("t_s", Num (Vini_sim.Time.to_sec_f f.Span.f_t));
      ("path", Arr (List.map span_path_step_json f.Span.f_path));
    ]

let span_tree_json (tr : Span.tree) =
  Obj
    [
      ("orig", Num (float_of_int tr.Span.tree_orig));
      ("origin", Str (Span.root_component tr));
      ("total_s", Num (Span.total_latency tr));
      ("dropped", Bool (tr.Span.drops <> []));
      ( "hops",
        Arr
          (List.map
             (fun (h : Span.hop) ->
               Obj
                 [
                   ("component", Str h.Span.h_component);
                   ( "attribution",
                     Str
                       (Vini_sim.Span.attribution_name h.Span.h_attribution)
                   );
                   ("t0_s", Num (Vini_sim.Time.to_sec_f h.Span.h_t0));
                   ("duration_s", Num (Span.hop_duration_s h));
                 ])
             tr.Span.hops) );
    ]

(* Perfetto counter tracks: each timeline series becomes a "C" event per
   sample, so pool occupancy, ring depth and engine backlog plot as
   graphs alongside the packet spans. *)
let counter_trace_events timeline =
  List.concat_map
    (fun (name, _, points) ->
      List.map
        (fun (t_s, v) ->
          Obj
            [
              ("name", Str name);
              ("ph", Str "C");
              ("ts", Num (t_s *. 1e6));
              ("pid", Num 1.0);
              ("args", Obj [ ("value", Num v) ]);
            ])
        points)
    (Timeline.series timeline)

(* The profiler's element attribution: a per-class summary plus the
   collapsed stacks — each a root-to-leaf element path with its
   attributed cost, one "path µs" line per entry, loadable directly by
   flamegraph.pl (integer microseconds as the sample count). *)
let profile_sections p =
  let module Profile = Vini_sim.Profile in
  [
    ( "element_profile",
      Arr
        (List.map
           (fun (r : Profile.element_row) ->
             Obj
               [
                 ("class", Str r.Profile.er_class);
                 ("packets", Num (float_of_int r.Profile.er_packets));
                 ("self_s", Num r.Profile.er_self_s);
                 ("total_s", Num r.Profile.er_total_s);
               ])
           (Profile.element_rows p)) );
    ( "collapsed",
      Arr
        (List.map
           (fun (path, cost_s, _count) ->
             Str (Printf.sprintf "%s %.0f" path (cost_s *. 1e6)))
           (Profile.collapsed p)) );
  ]

let spans_document ?(worst = 5) ?profile ?timeline ?(extra = [])
    recorder =
  let trees = Span.trees recorder in
  Obj
    ([
       ("schema", Str spans_schema_version);
       ("displayTimeUnit", Str "ms");
       ( "recorder",
         Obj
           [
             ( "capacity",
               Num (float_of_int (Vini_sim.Span.capacity recorder)) );
             ("retained", Num (float_of_int (Vini_sim.Span.length recorder)));
             ( "overwritten",
               Num (float_of_int (Vini_sim.Span.overwritten recorder)) );
           ] );
       ( "traceEvents",
         Arr
           (span_trace_events trees
           @ Option.fold ~none:[] ~some:counter_trace_events timeline) );
       ("breakdown", Arr (List.map span_row_json (Span.breakdown trees)));
       ( "breakdown_by_origin",
         Arr
           (List.map
              (fun (key, rows) ->
                Obj
                  [
                    ("origin", Str key);
                    ("rows", Arr (List.map span_row_json rows));
                  ])
              (Span.breakdown_by_origin trees)) );
       ("drops", Arr (List.map span_forensic_json (Span.forensics trees)));
       ( "worst_paths",
         Arr (List.map span_tree_json (Span.worst ~n:worst trees)) );
     ]
    @ (match profile with None -> [] | Some p -> profile_sections p)
    @ extra)

let write ~path j =
  let oc = open_out path in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc

(* ---- vini.embed/1 ------------------------------------------------------- *)

let embed_schema_version = "vini.embed/1"

module Substrate = Vini_embed.Substrate
module Embed = Vini_embed.Embed
module Request = Vini_embed.Request

type embed_slice = {
  es_name : string;
  es_vtopo : Vini_topo.Graph.t;
  es_request : Request.t;
  es_result : (Embed.mapping, Embed.rejection) result;
}

type embed_migration = {
  mg_vnode : int;
  mg_from : int;
  mg_to : int;
  mg_kind : string;
  mg_down_s : float;
  mg_restored_s : float;
  mg_cutover_loss : int option;
  mg_stretch_before : float;
  mg_stretch_after : float;
  mg_balance_before : float;
  mg_balance_after : float;
}

let embed_slice_json sub s =
  let module Graph = Vini_topo.Graph in
  let base =
    [
      ("name", Str s.es_name);
      ("algo", Str (Request.algo_to_string s.es_request.Request.algo));
      ("seed", Num (float_of_int s.es_request.Request.seed));
    ]
  in
  match s.es_result with
  | Error r ->
      Obj
        (base
        @ [
            ("status", Str "rejected");
            ( "rejection",
              Obj
                [
                  ("kind", Str (Embed.rejection_kind r));
                  ("detail", Str (Embed.rejection_to_string r));
                ] );
          ])
  | Ok m ->
      let sg = Substrate.graph sub in
      let nodes =
        Array.to_list
          (Array.mapi
             (fun v p ->
               Obj
                 [
                   ("vnode", Num (float_of_int v));
                   ("vname", Str (Graph.name s.es_vtopo v));
                   ("pnode", Num (float_of_int p));
                   ("pname", Str (Graph.name sg p));
                   ("cpu", Num (s.es_request.Request.cpu_demand v));
                 ])
             m.Embed.nodes)
      in
      let vlinks =
        List.map
          (fun ((va, vb), path) ->
            let bw =
              match Graph.find_link s.es_vtopo va vb with
              | Some l -> s.es_request.Request.bw_demand l
              | None -> 0.0
            in
            Obj
              [
                ("va", Num (float_of_int va));
                ("vb", Num (float_of_int vb));
                ("bw", Num bw);
                ("path", Arr (List.map (fun p -> Num (float_of_int p)) path));
                ("stretch", Num (Embed.path_stretch sub path));
              ])
          m.Embed.vpaths
      in
      Obj
        (base
        @ [
            ("status", Str "mapped");
            ("nodes", Arr nodes);
            ("vlinks", Arr vlinks);
            ("mean_stretch", Num (Embed.stretch sub m));
          ])

let embed_document ?(migrations = []) ~substrate ~slices () =
  let module Graph = Vini_topo.Graph in
  let sg = Substrate.graph substrate in
  let pn = Graph.node_count sg in
  let pnode_stress =
    List.init pn (fun p ->
        Obj
          [
            ("pnode", Num (float_of_int p));
            ("pname", Str (Graph.name sg p));
            ("capacity", Num (Substrate.node_capacity substrate p));
            ("used", Num (Substrate.node_used substrate p));
            ("residual", Num (Substrate.node_residual substrate p));
          ])
  in
  let plink_stress =
    List.map
      (fun (l : Graph.link) ->
        Obj
          [
            ("a", Num (float_of_int l.Graph.a));
            ("b", Num (float_of_int l.Graph.b));
            ("capacity", Num (Substrate.link_capacity substrate l.Graph.a l.Graph.b));
            ("used", Num (Substrate.link_used substrate l.Graph.a l.Graph.b));
            ("residual", Num (Substrate.link_residual substrate l.Graph.a l.Graph.b));
          ])
      (Graph.links sg)
  in
  let histogram =
    Array.to_list
      (Array.map
         (fun (lo, hi, count) ->
           Arr [ Num lo; Num hi; Num (float_of_int count) ])
         (Substrate.residual_histogram substrate))
  in
  let migrations_json =
    List.map
      (fun mg ->
        Obj
          [
            ("vnode", Num (float_of_int mg.mg_vnode));
            ("from", Num (float_of_int mg.mg_from));
            ("to", Num (float_of_int mg.mg_to));
            ("kind", Str mg.mg_kind);
            ("down_s", Num mg.mg_down_s);
            ("restored_s", Num mg.mg_restored_s);
            ("downtime_s", Num (mg.mg_restored_s -. mg.mg_down_s));
            ( "cutover_loss",
              match mg.mg_cutover_loss with
              | Some n -> Num (float_of_int n)
              | None -> Null );
            ("stretch_before", Num mg.mg_stretch_before);
            ("stretch_after", Num mg.mg_stretch_after);
            ("balance_before", Num mg.mg_balance_before);
            ("balance_after", Num mg.mg_balance_after);
          ])
      migrations
  in
  Obj
    [
      ("schema", Str embed_schema_version);
      ( "substrate",
        Obj
          [
            ("nodes", Num (float_of_int pn));
            ("links", Num (float_of_int (Graph.link_count sg)));
          ] );
      ("slices", Arr (List.map (embed_slice_json substrate) slices));
      ("pnode_stress", Arr pnode_stress);
      ("plink_stress", Arr plink_stress);
      ("residual_histogram", Arr histogram);
      ( "acceptance",
        Obj
          [
            ("admitted", Num (float_of_int (Substrate.admitted substrate)));
            ("rejected", Num (float_of_int (Substrate.rejected substrate)));
            ("rate", Num (Substrate.acceptance_rate substrate));
          ] );
      ("migrations", Arr migrations_json);
    ]

(* ---- the vini.scenario/1 document --------------------------------------- *)

let scenario_schema_version = "vini.scenario/1"

let scenario_document ?(name = "scenario") ?fluid ?under ~substrate ~workload
    () =
  let module Graph = Vini_topo.Graph in
  let module W = Vini_scenario.Workload in
  let delays =
    List.map (fun l -> Vini_sim.Time.to_ms_f l.Graph.delay)
      (Graph.links substrate)
  in
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let substrate_json =
    Obj
      [
        ("label", Str (Graph.label substrate));
        ("nodes", Num (float_of_int (Graph.node_count substrate)));
        ("links", Num (float_of_int (Graph.link_count substrate)));
        ("mean_delay_ms", Num (mean delays));
      ]
  in
  let workload_json =
    Obj
      [
        ("users", Num (float_of_int workload.W.users));
        ("seed", Num (float_of_int workload.W.seed));
        ("flow_rate_per_user", Num workload.W.flow_rate_per_user);
        ("mean_flow_bytes", Num workload.W.mean_flow_bytes);
        ("pareto_shape", Num workload.W.pareto_shape);
        ("popularity_skew", Num workload.W.popularity_skew);
        ("aggregate_flow_rate", Num (W.aggregate_rate workload));
        ("mean_offered_bps", Num (W.mean_offered_bps workload));
      ]
  in
  (* The packet side of the hybrid comparison: per-plink bytes actually
     serialised, which under hybrid fidelity already includes the fluid
     model's delay and loss pressure. *)
  let packet_json =
    match under with
    | None -> Null
    | Some u ->
        Arr
          (List.concat_map
             (fun (l : Graph.link) ->
               let plink = Vini_phys.Underlay.plink u l.Graph.a l.Graph.b in
               List.map
                 (fun dir ->
                   let s = Vini_phys.Plink.stats plink ~dir in
                   let from, to_ =
                     if dir = 0 then (l.Graph.a, l.Graph.b)
                     else (l.Graph.b, l.Graph.a)
                   in
                   Obj
                     [
                       ("from", Str (Graph.name substrate from));
                       ("to", Str (Graph.name substrate to_));
                       ("sent", Num (float_of_int s.Vini_phys.Plink.sent));
                       ( "delivered",
                         Num (float_of_int s.Vini_phys.Plink.delivered) );
                       ( "bytes_sent",
                         Num (float_of_int s.Vini_phys.Plink.bytes_sent) );
                       ( "bg_drops",
                         Num (float_of_int s.Vini_phys.Plink.bg_drops) );
                     ])
                 [ 0; 1 ])
             (Graph.links substrate))
  in
  Obj
    [
      ("schema", Str scenario_schema_version);
      ("name", Str name);
      ("substrate", substrate_json);
      ("workload", workload_json);
      ( "fluid",
        match fluid with
        | None -> Null
        | Some f -> Vini_scenario.Fluid.to_json f );
      ("packet_links", packet_json);
    ]
