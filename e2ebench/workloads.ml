(* The benchmark's three workloads, built only from the public API.

   Each workload turns a seed into concrete inputs (substrate, virtual
   topology, fault timeline, traffic), sets the experiment up through the
   same calls a user makes, and hands [Bench] an [instance]: an engine
   positioned at the measurement start, the sim-time window to measure,
   and a [finish] that checks the simulated outputs once the window has
   run.  Nothing here reads a clock; [Bench] times every call from
   outside through [timer]. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Rng = Vini_std.Rng
module Graph = Vini_topo.Graph
module Datasets = Vini_topo.Datasets
module Underlay = Vini_phys.Underlay
module Plink = Vini_phys.Plink
module Slice = Vini_phys.Slice
module Supervisor = Vini_phys.Supervisor
module Iias = Vini_overlay.Iias
module Ospf = Vini_routing.Ospf
module Iperf = Vini_measure.Iperf
module Ping = Vini_measure.Ping
module Export = Vini_measure.Export
module Udp_flow = Vini_transport.Udp_flow
module Prefix = Vini_net.Prefix
module Generate = Vini_scenario.Generate
module Workload = Vini_scenario.Workload
module Fluid = Vini_scenario.Fluid
module Experiment = Vini_core.Experiment
module Vini = Vini_core.Vini
module Chaos = Vini_core.Chaos

(* Times one named call; [Bench] decides what a name is worth
   (a setup phase, a span in the traced run, or both). *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

type outcome = {
  checks : (string * bool * string) list;
      (** name, passed, what was observed *)
  digest : string;
      (** the simulated outputs, printed exactly: equal across every run
          of one seed *)
  counters : (string * float * string) list;
      (** per-layer counts at the end of the run: name, value, unit *)
}

type instance = {
  engine : Engine.t;
  start : Time.t;  (** measurement start; everything before is set-up *)
  stop : Time.t;
  slice : Time.t;  (** sim-time width of one timed window *)
  faults : Time.t list;  (** scheduled fault instants (absolute) *)
  advance : Time.t -> unit;  (** run the deployment up to an instant *)
  finish : unit -> outcome;
  export : unit -> unit;  (** build and print the workload's Export documents *)
}

type t = {
  name : string;
  setup : seed:int -> short:bool -> timer -> instance;
      (** [short] cuts the measured window to a tenth, for smoke runs *)
}

(* ---- shared per-layer accounting ------------------------------------- *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let vnodes iias = List.init (Iias.vnode_count iias) (Iias.vnode iias)

let plink_stats under =
  let g = Underlay.graph under in
  List.concat_map
    (fun (l : Graph.link) ->
      let p = Underlay.plink under l.Graph.a l.Graph.b in
      [ Plink.stats p ~dir:0; Plink.stats p ~dir:1 ])
    (Graph.links g)

let plink_drops (s : Plink.stats) =
  s.Plink.queue_drops + s.Plink.loss_drops + s.Plink.down_drops + s.Plink.bg_drops

(* Counters every workload reports, whether or not it exercises them: a
   layer a workload bypasses reads as zero. *)
let overlay_counters ~under ~iias ~busy_pct =
  let vns = vnodes iias in
  let st = List.map Iias.stats vns in
  let useful = sum (fun s -> s.Iias.forwarded + s.Iias.delivered) st in
  let socket_drops = sum Iias.socket_drops vns in
  let lost =
    socket_drops
    + sum
        (fun s ->
          s.Iias.no_route + s.Iias.ttl_drops + s.Iias.tunnel_drops
          + s.Iias.corrupt_drops)
        st
  in
  let cache = List.map Iias.fib_cache_stats vns in
  let memo = List.map Iias.fib_memo_stats vns in
  let ospfs = List.filter_map Iias.ospf vns in
  let restarts =
    match Iias.supervisor iias with
    | None -> 0
    | Some sv -> sum (fun name -> Supervisor.restarts sv ~name) (Supervisor.children sv)
  in
  [
    ( "click.fib_cache_hit_ratio",
      ratio (sum fst cache) (sum (fun (h, m) -> h + m) cache),
      "ratio" );
    ("click.fib_memo_hit_ratio", ratio (sum fst memo) (sum snd memo), "ratio");
    ("phys.fwdr_cpu_busy_pct", busy_pct, "%");
    ("phys.delivered_ratio", ratio useful (useful + lost), "ratio");
    ("phys.socket_drops", float_of_int socket_drops, "count");
    ( "phys.bg_drops",
      float_of_int (sum (fun s -> s.Plink.bg_drops) (plink_stats under)),
      "count" );
    ("routing.ospf_messages", float_of_int (sum Ospf.messages_sent ospfs), "count");
    ("routing.spf_runs", float_of_int (sum Ospf.spf_runs ospfs), "count");
    ("core.restarts", float_of_int restarts, "count");
  ]

let vstats_line vn =
  let s = Iias.stats vn in
  Printf.sprintf "%s fwd=%d dlv=%d noroute=%d ttl=%d tun=%d sock=%d cpu=%d"
    (Iias.vname vn) s.Iias.forwarded s.Iias.delivered s.Iias.no_route
    s.Iias.ttl_drops s.Iias.tunnel_drops (Iias.socket_drops vn)
    (Time.to_sec_f (Iias.cpu_time vn) *. 1e9 |> Float.to_int)

let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let zero_counters names = List.map (fun (n, u) -> (n, 0.0, u)) names

(* An empty flight recorder still yields the full spans document: the
   profiler's element attribution when one is installed. *)
let export_spans () =
  let doc =
    Export.spans_document ?profile:(Vini_sim.Profile.current ())
      (Vini_sim.Span.create ~capacity:16 ())
  in
  ignore (Export.to_string doc)

(* ---- the DETER chain (§5.1.1) ---------------------------------------- *)

(* The 3-machine chain with user-space Click on every node; [routing] is
   the overlay's control plane. *)
let deter_chain ~seed ~routing timer =
  let graph = timer.time "topo" Datasets.Deter.topology in
  let engine = Engine.create ~seed () in
  let under =
    timer.time "underlay" (fun () ->
        Underlay.create ~engine ~rng:(Rng.split (Engine.rng engine)) ~graph ())
  in
  let iias =
    timer.time "deploy" (fun () ->
        Iias.create ~underlay:under ~slice:(Slice.pl_vini "iias") ~vtopo:graph
          ~embedding:Fun.id ~routing ())
  in
  timer.time "start" (fun () -> Iias.start iias);
  (engine, under, iias)

let deter_no_scenario =
  zero_counters
    [
      ("scenario.fluid_ticks", "count");
      ("scenario.flows", "count");
      ("scenario.drop_ratio", "ratio");
      ("embed.migrations", "count");
    ]

let cpu_pct ~before ~after ~window =
  100.0 *. Time.to_sec_f (Time.sub after before) /. Time.to_sec_f window

(* Table 2's IIAS row: 20 iperf streams, 16 KB windows, ACK-clocked
   1500-byte segments, after the 25 s OSPF lead-in and iperf's 2 s
   warm-up.  The window is long enough that one measured phase takes
   several wall seconds on a 2-core host. *)
let tcp_window = Time.sec 30
let tcp_lead_in = Time.sec 25
let tcp_warmup = Time.sec 2
let table2_mbps = 195.0

let shorten ~short t = if short then Time.of_sec_f (Time.to_sec_f t /. 10.0) else t

let deter_tcp_setup ~seed ~short timer =
  let tcp_window = shorten ~short tcp_window in
  let engine, under, iias =
    deter_chain ~seed ~routing:Iias.default_ospf timer
  in
  let src = Iias.vnode iias Datasets.Deter.src in
  let sink = Iias.vnode iias Datasets.Deter.sink in
  let fwdr = Iias.vnode iias Datasets.Deter.fwdr in
  let run =
    Iperf.tcp ~client:(Iias.tap src) ~server:(Iias.tap sink) ~warmup:tcp_warmup
      ~start:tcp_lead_in ~duration:tcp_window ()
  in
  let start = Time.add tcp_lead_in tcp_warmup in
  let stop = Time.add start tcp_window in
  timer.time "converge" (fun () -> Engine.run ~until:start engine);
  let cpu0 = Iias.cpu_time fwdr in
  let finish () =
    let mbps = Iperf.tcp_mbps run in
    let lo = table2_mbps *. 0.9 and hi = table2_mbps *. 1.1 in
    let busy = cpu_pct ~before:cpu0 ~after:(Iias.cpu_time fwdr) ~window:tcp_window in
    {
      checks =
        [
          ( "goodput_in_table2_band",
            mbps >= lo && mbps <= hi,
            Printf.sprintf "%.3f Mb/s (band %.1f..%.1f)" mbps lo hi );
        ];
      digest =
        digest_of
          ([
             Printf.sprintf "delivered=%d retrans=%d timeouts=%d events=%d"
               (Iperf.tcp_total_delivered run) (Iperf.tcp_retransmits run)
               (Iperf.tcp_timeouts run) (Engine.events_fired engine);
           ]
          @ List.map vstats_line (vnodes iias));
      counters =
        [
          ("transport.goodput_mbps", mbps, "Mb/s");
          ("transport.retransmits", float_of_int (Iperf.tcp_retransmits run), "count");
          ("transport.timeouts", float_of_int (Iperf.tcp_timeouts run), "count");
        ]
        @ overlay_counters ~under ~iias ~busy_pct:busy
        @ deter_no_scenario;
    }
  in
  {
    engine;
    start;
    stop;
    slice = Time.ms 100;
    faults = [];
    advance = (fun until -> Engine.run ~until engine);
    finish;
    export = export_spans;
  }

(* Open-loop CBR of 64-byte datagrams (36 bytes of iperf payload) offered
   at 70 kpps: above the forwarder's per-packet ceiling (~69 kpps for a
   92-byte encapsulated frame) and below the source's (~71.5 kpps for the
   bare 64-byte one), so the forwarding process's socket overflows while
   everything else keeps up.  Static routes keep the overlay free of
   control packets: every packet on the path is a CBR datagram, which is
   what makes the conservation check exact.  Set-up ends after a 1 s
   warm-up, once the forwarder's socket has filled and is overflowing. *)
let udp_payload = 36
let udp_wire = udp_payload + Vini_net.Wire.ipv4_header + Vini_net.Wire.udp_header
let udp_pps = 70_000
let udp_warmup = Time.sec 1
let udp_window = Time.sec 15
let udp_drain = Time.sec 1

let deter_udp64_setup ~seed ~short timer =
  let udp_window = shorten ~short udp_window in
  let engine, under, iias =
    deter_chain ~seed ~routing:Iias.Static_routes timer
  in
  let src = Iias.vnode iias Datasets.Deter.src in
  let sink = Iias.vnode iias Datasets.Deter.sink in
  let fwdr = Iias.vnode iias Datasets.Deter.fwdr in
  let sink_host = Prefix.make (Iias.tap_addr sink) 32 in
  timer.time "start" (fun () ->
      Iias.add_static iias Datasets.Deter.src sink_host ~via:Datasets.Deter.fwdr;
      Iias.add_static iias Datasets.Deter.fwdr sink_host ~via:Datasets.Deter.sink);
  let rx = Udp_flow.receiver ~stack:(Iias.tap sink) ~port:5001 () in
  let tx =
    Udp_flow.sender ~stack:(Iias.tap src) ~dst:(Iias.tap_addr sink)
      ~dst_port:5001
      ~rate_bps:(float_of_int (udp_pps * udp_wire * 8))
      ~payload_bytes:udp_payload ~duration:(Time.add udp_warmup udp_window) ()
  in
  let start = udp_warmup in
  let stop = Time.add start udp_window in
  timer.time "converge" (fun () -> Engine.run ~until:start engine);
  let received () = (Udp_flow.receiver_stats rx).Udp_flow.received in
  let rx0 = received () in
  let cpu0 = Iias.cpu_time fwdr in
  let finish () =
    let busy = cpu_pct ~before:cpu0 ~after:(Iias.cpu_time fwdr) ~window:udp_window in
    (* Let the last datagrams land before counting. *)
    Engine.run ~until:(Time.add stop udp_drain) engine;
    let sent = Udp_flow.sent tx in
    let received = received () in
    let sites =
      List.map (fun vn -> (Iias.vname vn, Iias.socket_drops vn)) (vnodes iias)
      @ [
          ("plinks", sum plink_drops (plink_stats under));
          ("unmatched", Vini_phys.Ipstack.unmatched (Iias.tap sink));
          ("no_route", sum (fun vn -> (Iias.stats vn).Iias.no_route) (vnodes iias));
          ("underlay", Underlay.blackholed under);
        ]
    in
    let dropped = sum snd sites in
    let fwdr_drops = Iias.socket_drops fwdr in
    {
      checks =
        [
          ( "packet_conservation",
            sent = received + dropped,
            Printf.sprintf "sent %d = received %d + dropped %d (%s)" sent
              received dropped
              (String.concat ", "
                 (List.map (fun (s, n) -> Printf.sprintf "%s %d" s n) sites)) );
          ( "forwarder_overflows",
            fwdr_drops > 0 && received > 0,
            Printf.sprintf "forwarder socket drops %d" fwdr_drops );
        ];
      digest =
        digest_of
          (Printf.sprintf "sent=%d received=%d dropped=%d events=%d" sent
             received dropped (Engine.events_fired engine)
          :: List.map vstats_line (vnodes iias));
      counters =
        [
          ("transport.goodput_mbps",
           float_of_int ((received - rx0) * udp_payload * 8) /. Time.to_sec_f udp_window /. 1e6,
           "Mb/s");
          ("transport.retransmits", 0.0, "count");
          ("transport.timeouts", 0.0, "count");
        ]
        @ overlay_counters ~under ~iias ~busy_pct:busy
        @ deter_no_scenario;
    }
  in
  {
    engine;
    start;
    stop;
    slice = Time.ms 50;
    faults = [];
    advance = (fun until -> Engine.run ~until engine);
    finish;
    export = export_spans;
  }

(* ---- the 200-PoP chaos campaign --------------------------------------- *)

(* examples/specs/scenario.vini grown into a campaign: the seeded 200-PoP
   backbone, a million hybrid-fidelity users on the 100 ms fluid tick, an
   OSPF overlay of [overlay_nodes] auto-placed virtual nodes, and a seeded
   crash/kill/flap timeline over [campaign] seconds after the lead-in.
   The overlay is itself a small generated backbone (about two links per
   node): a Waxman overlay of the same size is dense enough that its
   initial LSA flood costs more wall time than the whole campaign.  A 4/s
   ping across the overlay keeps a thin packet stream crossing the
   background pressure. *)
let pops = 200
let overlay_nodes = 24
let users = 1_000_000
let bb_lead_in = Time.sec 30
let campaign = 270.0
let recovery_tail = Time.sec 15

(* The benchmark seed draws the fault timeline (and seeds the engine).
   The substrate, the overlay and the user population are fixed, as
   scenario.vini fixes them with its own seeds: which graph or which hot
   PoPs a seed drew would otherwise move the cost of a run by more than
   any change under test. *)
let sub_seed seed k = (seed * 7919) + (k * 104_729)
let substrate_seed = 42
let overlay_seed = 24
let users_seed = 7

(* A plain Chaos.plan draws how many crashes, kills and flaps it holds
   (8 to 26 crashes over 180 s across ten seeds), and crashes and flaps set
   most of a campaign's cost.  So the timeline is cut into [fault_slot]
   slots that each keep exactly one fault of a fixed rotation — crash,
   kill, flap — taken from a dense seeded plan: the plan's first fault of
   that kind inside the slot, with its paired reboot.  The seed still
   picks every victim, instant and downtime; keeping a subset of a plan's
   crashes never re-crashes a machine before its reboot. *)
let fault_slot = 5.0

let dense_profile campaign =
  {
    Chaos.default_profile with
    duration = campaign;
    mean_interfault = 0.25;
    corrupt_weight = 0.0;
    mean_downtime = 6.0;
  }

let fault_kind = function
  | Experiment.Crash_pnode _ -> Some 0
  | Experiment.Kill_process _ -> Some 1
  | Experiment.Flap_vlink _ -> Some 2
  | _ -> None

let slotted_plan ~seed ~vtopo campaign =
  let slots = int_of_float (campaign /. fault_slot) in
  let taken = Array.make slots false in
  let rec go acc = function
    | [] -> acc
    | (e : Experiment.event) :: rest -> (
        let i = int_of_float (Time.to_sec_f e.at /. fault_slot) in
        match fault_kind e.action with
        | Some k when i < slots && (not taken.(i)) && k = i mod 3 ->
            taken.(i) <- true;
            let reboot =
              match e.action with
              | Experiment.Crash_pnode v ->
                  List.find_opt
                    (fun (r : Experiment.event) ->
                      match r.action with
                      | Experiment.Restore_pnode w -> w = v
                      | _ -> false)
                    rest
                  |> Option.to_list
              | _ -> []
            in
            go ((e :: reboot) @ acc) rest
        | _ -> go acc rest)
  in
  Chaos.plan ~seed ~vtopo (dense_profile campaign)
  |> go []
  |> List.stable_sort (fun (a : Experiment.event) b -> Time.compare a.at b.at)

let backbone_setup ~seed ~short timer =
  let campaign = if short then campaign /. 10.0 else campaign in
  let topo_spec = { Generate.kind = Generate.backbone pops; seed = substrate_seed } in
  let phys = timer.time "topo" (fun () -> Generate.generate topo_spec) in
  let vtopo =
    timer.time "topo" (fun () ->
        Generate.generate
          {
            Generate.kind = Generate.backbone ~bandwidth_bps:1e9 overlay_nodes;
            seed = overlay_seed;
          })
  in
  let workload =
    {
      (Workload.default ~users ~seed:users_seed) with
      Workload.flow_rate_per_user = 0.002;
      mean_flow_bytes = 50_000.0;
      pareto_shape = 1.5;
      popularity_skew = 1.0;
    }
  in
  let plan = slotted_plan ~seed:(sub_seed seed 4) ~vtopo campaign in
  let events =
    List.map (fun e -> { e with Experiment.at = Time.add e.Experiment.at bb_lead_in }) plan
  in
  let request =
    Vini_embed.Request.make ~name:"campaign" ~cpu:(fun _ -> 0.25)
      ~seed:(sub_seed seed 5 land 0xffff) ()
  in
  let spec =
    Experiment.make ~name:"campaign" ~slice:(Slice.create ~reservation:0.25 ~realtime:true "campaign")
      ~vtopo ~placement:(Experiment.Auto request) ~events
      ~scenario:{ Experiment.workload; fidelity = Fluid.Hybrid; tick = Fluid.default_tick }
      ()
  in
  let engine = Engine.create ~seed () in
  let vini = timer.time "underlay" (fun () -> Vini.create ~engine ~graph:phys ()) in
  let inst = timer.time "deploy" (fun () -> Vini.deploy vini spec) in
  timer.time "start" (fun () -> Vini.start inst);
  let iias = Vini.iias inst in
  let under = Vini.underlay vini in
  let start = bb_lead_in in
  let last_event =
    List.fold_left (fun acc e -> Time.max acc e.Experiment.at) start events
  in
  let stop =
    Time.add
      (Time.max last_event (Time.add start (Time.of_sec_f campaign)))
      recovery_tail
  in
  timer.time "converge" (fun () -> Vini.run ~until:start vini);
  let a = Iias.vnode iias 0 and b = Iias.vnode iias (overlay_nodes - 1) in
  let ping_every = Time.ms 250 in
  let ping =
    Ping.start ~stack:(Iias.tap a) ~dst:(Iias.tap_addr b)
      ~count:(int_of_float (Time.to_sec_f (Time.sub stop start) *. 4.0) - 4)
      ~mode:(Ping.Interval ping_every) ()
  in
  let fluid = Option.get (Vini.fluid inst) in
  let cpu0 = List.map Iias.cpu_time (vnodes iias) in
  let crashed =
    List.filter_map
      (fun e ->
        match e.Experiment.action with
        | Experiment.Crash_pnode v -> Some v
        | _ -> None)
      events
  in
  let finish () =
    let window = Time.sub stop start in
    let busy =
      List.fold_left2
        (fun acc before vn ->
          Float.max acc (cpu_pct ~before ~after:(Iias.cpu_time vn) ~window))
        0.0 cpu0 (vnodes iias)
    in
    let tot = Fluid.totals fluid in
    let balance =
      tot.Fluid.offered_bytes
      -. (tot.Fluid.drained_bytes +. tot.Fluid.dropped_bytes +. tot.Fluid.backlog_bytes)
    in
    let down =
      List.filter
        (fun v -> not (Underlay.node_is_up under (Iias.current_pnode iias v)))
        crashed
    in
    let dead = List.filter (fun vn -> not (Iias.vnode_alive vn)) (vnodes iias) in
    let faults = List.length (List.filter (fun e -> Experiment.is_chaos_action e.Experiment.action) events) in
    {
      checks =
        [
          ( "fluid_conservation",
            Float.abs balance <= 1e-9 *. Float.max 1.0 tot.Fluid.offered_bytes,
            Printf.sprintf "offered %.0f = drained %.0f + dropped %.0f + backlog %.0f (residual %g)"
              tot.Fluid.offered_bytes tot.Fluid.drained_bytes tot.Fluid.dropped_bytes
              tot.Fluid.backlog_bytes balance );
          ( "pnodes_restored",
            down = [],
            Printf.sprintf "%d crashes, %d hosts still down" (List.length crashed)
              (List.length down) );
          ( "vnodes_alive",
            dead = [],
            Printf.sprintf "%d of %d vnodes dead at the end" (List.length dead)
              overlay_nodes );
          ( "faults_injected",
            faults > 0,
            Printf.sprintf "%d fault events" faults );
        ];
      digest =
        digest_of
          ([
             Printf.sprintf "flows=%d offered=%h drained=%h dropped=%h backlog=%h ticks=%d"
               tot.Fluid.flows tot.Fluid.offered_bytes tot.Fluid.drained_bytes
               tot.Fluid.dropped_bytes tot.Fluid.backlog_bytes (Fluid.ticks fluid);
             Printf.sprintf "ping=%d/%d events=%d migrations=%d"
               (Ping.received ping) (Ping.sent ping) (Engine.events_fired engine)
               (List.length (Vini.migrations inst));
           ]
          @ List.map vstats_line (vnodes iias));
      counters =
        [
          ("transport.goodput_mbps", 0.0, "Mb/s");
          ("transport.retransmits", 0.0, "count");
          ("transport.timeouts", 0.0, "count");
        ]
        @ overlay_counters ~under ~iias ~busy_pct:busy
        @ [
            ("scenario.fluid_ticks", float_of_int (Fluid.ticks fluid), "count");
            ("scenario.flows", float_of_int tot.Fluid.flows, "count");
            ( "scenario.drop_ratio",
              (if tot.Fluid.offered_bytes > 0.0 then
                 tot.Fluid.dropped_bytes /. tot.Fluid.offered_bytes
               else 0.0),
              "ratio" );
            ("embed.migrations", float_of_int (List.length (Vini.migrations inst)), "count");
          ];
    }
  in
  let export () =
    let slices =
      List.map
        (fun m ->
          {
            Export.es_name = "campaign";
            es_vtopo = vtopo;
            es_request = request;
            es_result = Ok m;
          })
        (Option.to_list (Vini.mapping inst))
    in
    let docs =
      [
        Export.scenario_document ~fluid ~under ~substrate:phys ~workload ();
        Export.embed_document ~substrate:(Vini.substrate vini) ~slices ();
      ]
    in
    List.iter (fun d -> ignore (Export.to_string d)) docs;
    export_spans ()
  in
  {
    engine;
    start;
    stop;
    slice = Time.sec 1;
    faults =
      List.filter_map
        (fun e ->
          if Experiment.is_chaos_action e.Experiment.action then Some e.Experiment.at
          else None)
        events;
    advance = (fun until -> Vini.run ~until vini);
    finish;
    export;
  }

(* Why each workload exists: BENCHMARK.json and README.md. *)
let all =
  [
    { name = "deter_tcp"; setup = deter_tcp_setup };
    { name = "deter_udp64"; setup = deter_udp64_setup };
    { name = "backbone200_chaos"; setup = backbone_setup };
  ]
