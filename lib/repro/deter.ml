module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Datasets = Vini_topo.Datasets
module Underlay = Vini_phys.Underlay
module Pnode = Vini_phys.Pnode
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Iperf = Vini_measure.Iperf
module Ping = Vini_measure.Ping

type tcp_result = {
  mbps_mean : float;
  mbps_stddev : float;
  fwdr_cpu_pct : float;
}

type ping_result = {
  p_min : float;
  p_avg : float;
  p_max : float;
  p_mdev : float;
  p_loss_pct : float;
}

let make_underlay ~seed () =
  let engine = Engine.create ~seed () in
  let graph = Datasets.Deter.topology () in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  (engine, underlay)

let make_overlay ~seed () =
  let engine, underlay = make_underlay ~seed () in
  let slice = Slice.pl_vini "iias" in
  let iias =
    Iias.create ~underlay ~slice
      ~vtopo:(Datasets.Deter.topology ())
      ~embedding:Fun.id ()
  in
  Iias.start iias;
  (engine, underlay, iias)

(* One measured TCP run; [stacks] picks the endpoints and the middle
   node's CPU meter. *)
let tcp_run ~duration_s ~seed ~setup =
  let engine, client, server, fwdr_cpu = setup ~seed in
  let start = Time.sec 25 in
  let warmup = Time.sec 2 in
  let duration = Time.sec duration_s in
  let run = Iperf.tcp ~client ~server ~warmup ~start ~duration () in
  let window_open = Time.add start warmup in
  let cpu_before = ref Time.zero in
  ignore (Engine.at engine window_open (fun () -> cpu_before := fwdr_cpu ()));
  Engine.run ~until:(Time.add window_open duration) engine;
  let cpu_used = Time.sub (fwdr_cpu ()) !cpu_before in
  let cpu_pct = 100.0 *. Time.to_sec_f cpu_used /. Time.to_sec_f duration in
  (Iperf.tcp_mbps run, cpu_pct)

let aggregate runs =
  let mbps = Vini_std.Stats.create () and cpu = Vini_std.Stats.create () in
  List.iter
    (fun (m, c) ->
      Vini_std.Stats.add mbps m;
      Vini_std.Stats.add cpu c)
    runs;
  {
    mbps_mean = Vini_std.Stats.mean mbps;
    mbps_stddev = Vini_std.Stats.stddev mbps;
    fwdr_cpu_pct = Vini_std.Stats.mean cpu;
  }

let network_setup ~seed =
  let engine, underlay = make_underlay ~seed () in
  let src = Underlay.node underlay Datasets.Deter.src in
  let sink = Underlay.node underlay Datasets.Deter.sink in
  let fwdr = Underlay.node underlay Datasets.Deter.fwdr in
  ( engine,
    Pnode.stack src,
    Pnode.stack sink,
    fun () -> Pnode.kernel_cpu_time fwdr )

let iias_setup ~seed =
  let engine, _underlay, iias = make_overlay ~seed () in
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  let v_fwdr = Iias.vnode iias Datasets.Deter.fwdr in
  ( engine,
    Iias.tap v_src,
    Iias.tap v_sink,
    fun () -> Iias.cpu_time v_fwdr )

let many ~runs ~seed f =
  List.init runs (fun i -> f ~seed:(seed + (37 * i)))

let network_tcp ?(runs = 5) ?(duration_s = 5) ?(seed = 1001) () =
  aggregate
    (many ~runs ~seed (fun ~seed -> tcp_run ~duration_s ~seed ~setup:network_setup))

let iias_tcp ?(runs = 5) ?(duration_s = 5) ?(seed = 2001) () =
  aggregate
    (many ~runs ~seed (fun ~seed -> tcp_run ~duration_s ~seed ~setup:iias_setup))

let ping_result_of p =
  let rtts = Ping.rtt_ms p in
  {
    p_min = Vini_std.Stats.min rtts;
    p_avg = Vini_std.Stats.mean rtts;
    p_max = Vini_std.Stats.max rtts;
    p_mdev = Vini_std.Stats.mdev rtts;
    p_loss_pct = Ping.loss_pct p;
  }

let network_ping ?(count = 10_000) ?(seed = 3001) () =
  let engine, underlay = make_underlay ~seed () in
  let src = Underlay.node underlay Datasets.Deter.src in
  let sink = Underlay.node underlay Datasets.Deter.sink in
  let p =
    Ping.start ~stack:(Pnode.stack src) ~dst:(Pnode.addr sink) ~count ()
  in
  Engine.run ~until:(Time.sec 300) engine;
  ping_result_of p

let iias_ping ?(count = 10_000) ?(seed = 4001) () =
  let engine, _underlay, iias = make_overlay ~seed () in
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  Engine.run ~until:(Time.sec 25) engine;
  let p =
    Ping.start ~stack:(Iias.tap v_src) ~dst:(Iias.tap_addr v_sink) ~count ()
  in
  Engine.run ~until:(Time.sec 400) engine;
  ping_result_of p

(* ---- The instrumented observability run (vini deter --metrics-out) ---- *)

module Trace = Vini_sim.Trace
module Monitor = Vini_measure.Monitor
module Export = Vini_measure.Export
module Tcp = Vini_transport.Tcp

let observability_run ?(duration_s = 2) ?(seed = 7001)
    ?(trace_categories = Trace.Category.all) () =
  let engine, underlay, iias = make_overlay ~seed () in
  Engine.set_profiling engine true;
  let trace = Trace.create ~capacity:8192 ~categories:trace_categories () in
  Trace.install trace;
  let monitor = Vini_measure.Monitor.create ~engine ~interval:(Time.ms 200) () in
  Monitor.watch_engine monitor engine;
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  let v_fwdr = Iias.vnode iias Datasets.Deter.fwdr in
  Monitor.watch_vnode monitor v_fwdr ~prefix:"click.fwdr";
  Monitor.watch_vnode monitor v_sink ~prefix:"click.sink";
  let fwdr_node = Underlay.node underlay Datasets.Deter.fwdr in
  Monitor.watch_cpu monitor ~prefix:"phys.fwdr" (Pnode.cpu fwdr_node);
  Monitor.counter monitor ~name:"phys.fwdr.kernel_cpu_s" (fun () ->
      Time.to_sec_f (Pnode.kernel_cpu_time fwdr_node));
  (* Converge, then drive one bulk TCP transfer across the overlay so the
     engine, Click elements, CPU schedulers and TCP all see load. *)
  Engine.run ~until:(Time.sec 25) engine;
  Tcp.listen ~stack:(Iias.tap v_sink) ~port:5001 ~on_accept:(fun _ -> ()) ();
  let conn =
    Tcp.connect ~stack:(Iias.tap v_src) ~dst:(Iias.tap_addr v_sink)
      ~dst_port:5001 ()
  in
  Monitor.watch_tcp monitor ~prefix:"tcp.src" conn;
  Tcp.send_forever conn;
  Engine.run ~until:(Time.sec (25 + duration_s)) engine;
  Monitor.stop monitor;
  Trace.uninstall ();
  let stats = Tcp.stats conn in
  let mbps =
    float_of_int stats.Tcp.bytes_acked *. 8.0
    /. (float_of_int duration_s *. 1e6)
  in
  let doc =
    Export.document ~trace
      ~extra:
        [
          ("scenario", Export.Str "deter-iias-tcp");
          ("duration_s", Export.Num (float_of_int duration_s));
          ("seed", Export.Num (float_of_int seed));
          ("tcp_mbps", Export.Num mbps);
        ]
      [ monitor ]
  in
  (doc, mbps)

(* ---- The flight-recorder run (CI's spans artifact) --------------------- *)

module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack
module Sspan = Vini_sim.Span
module Mspan = Vini_measure.Span

(* A quarter of the recorder's default ring: plenty for the traffic
   window's trees while keeping the JSON artifact CI-friendly. *)
let spans_run ?(duration_s = 2) ?(seed = 7001) () =
  let engine, _underlay, iias = make_overlay ~seed () in
  (* Installing the recorder before convergence means even
     routing-protocol chatter gets causal trees. *)
  let recorder = Sspan.create ~capacity:65_536 () in
  Sspan.install recorder;
  let monitor = Monitor.create ~engine ~interval:(Time.ms 200) () in
  Mspan.watch monitor ~prefix:"spans" recorder;
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  Engine.run ~until:(Time.sec 25) engine;
  Tcp.listen ~stack:(Iias.tap v_sink) ~port:5001 ~on_accept:(fun _ -> ()) ();
  let conn =
    Tcp.connect ~stack:(Iias.tap v_src) ~dst:(Iias.tap_addr v_sink)
      ~dst_port:5001 ()
  in
  Tcp.send_forever conn;
  (* TTL-limited probes guarantee the artifact exercises drop forensics:
     each dies mid-path with a recorded path-so-far.  They go in near the
     end of the window so bulk-TCP records can't wrap the ring past them
     before the export. *)
  ignore
    (Engine.at engine
       (Time.sub (Time.sec (25 + duration_s)) (Time.ms 100))
       (fun () ->
         for i = 0 to 3 do
           Ipstack.send (Iias.tap v_src)
             (Packet.udp ~ttl:1 ~src:(Iias.tap_addr v_src)
                ~dst:(Iias.tap_addr v_sink) ~sport:40000 ~dport:40001
                (Packet.Probe
                   { Packet.flow = 9; seq = i; sent_ns = 0; pad = 32 }))
         done));
  Engine.run ~until:(Time.sec (25 + duration_s)) engine;
  Monitor.stop monitor;
  let trees = Mspan.trees recorder in
  Mspan.register_breakdown monitor ~prefix:"spans" trees;
  Sspan.uninstall ();
  let stats = Tcp.stats conn in
  let mbps =
    float_of_int stats.Tcp.bytes_acked *. 8.0
    /. (float_of_int duration_s *. 1e6)
  in
  let doc =
    Export.spans_document
      ~extra:
        [
          ("scenario", Export.Str "deter-iias-tcp-spans");
          ("duration_s", Export.Num (float_of_int duration_s));
          ("seed", Export.Num (float_of_int seed));
          ("tcp_mbps", Export.Num mbps);
          ("metrics", Export.document [ monitor ]);
        ]
      recorder
  in
  (doc, mbps)

(* ---- The timeline run (CI's vini.timeline/1 artifact) ------------------ *)

module Profile = Vini_sim.Profile
module Timeline = Vini_measure.Timeline
module Pool = Vini_net.Pool
module Ring = Vini_click.Ring
module Batch = Vini_click.Batch
module Element = Vini_click.Element
module Addr = Vini_net.Addr

(* A small batched data-plane loop riding the same engine as the overlay
   replay: a preallocated pool feeds an SPSC ring, and a recurring engine
   event drains it in breaths through a two-element chain whose sink
   recycles.  Pool occupancy, ring depth and element attribution series
   in the timeline artifact therefore carry real (and deterministic)
   data, not constants.  The pool is sized below what the refill wants so
   the low watermark actually moves. *)
let dp_loop engine ~until =
  let pool =
    Pool.create ~capacity:48
      ~mint:(fun i ->
        Vini_net.Packet.udp
          ~src:(Addr.of_string "10.99.0.1")
          ~dst:(Addr.of_string (Printf.sprintf "10.99.1.%d" (1 + (i mod 4))))
          ~sport:1000 ~dport:2000 (Vini_net.Packet.Bytes_ 512))
      ()
  in
  let ring = Ring.create ~capacity:32 in
  let sink =
    Element.make_batch "tl.sink"
      ~single:(fun pkt -> Pool.recycle pool pkt)
      ~batch:(fun b ->
        for i = 0 to Batch.length b - 1 do
          Pool.recycle pool (Batch.unsafe_get b i)
        done)
  in
  let count =
    Element.make_batch "tl.count"
      ~single:(fun pkt -> Element.push sink pkt)
      ~batch:(fun b -> Element.push_batch sink b)
  in
  let burst = Batch.create ~capacity:16 in
  let rec breath () =
    if Time.compare (Engine.now engine) until < 0 then begin
      (* Produce more than one breath consumes so the ring backlog (and
         its high-watermark) grows before settling at capacity. *)
      let go = ref true in
      let pushed = ref 0 in
      while !go && !pushed < 24 do
        match Pool.take_opt pool with
        | None -> go := false
        | Some p ->
            if Ring.push ring p then incr pushed
            else begin
              Pool.recycle pool p;
              go := false
            end
      done;
      Batch.clear burst;
      let n = Ring.pop_into ring burst ~max:16 in
      if n > 0 then Element.push_batch count burst;
      ignore (Engine.after engine (Time.ms 50) breath)
    end
  in
  ignore (Engine.after engine (Time.ms 50) breath);
  (pool, ring)

let timeline_run ?(duration_s = 2) ?(seed = 7001) ?(interval_ms = 200) () =
  let engine, _underlay, iias = make_overlay ~seed () in
  let profile = Profile.create () in
  Profile.install profile;
  let timeline =
    Timeline.create ~engine ~interval:(Time.ms interval_ms) ()
  in
  Timeline.watch_engine timeline engine;
  Timeline.watch_profile timeline profile;
  Timeline.watch_overlay timeline iias;
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  let v_fwdr = Iias.vnode iias Datasets.Deter.fwdr in
  Timeline.watch_process timeline ~prefix:"click.fwdr"
    (Iias.process v_fwdr);
  let stop_at = Time.sec (25 + duration_s) in
  let pool, ring = dp_loop engine ~until:stop_at in
  Timeline.watch_pool timeline ~prefix:"dp.pool" pool;
  Timeline.watch_ring timeline ~prefix:"dp.ring" ring;
  Engine.run ~until:(Time.sec 25) engine;
  Tcp.listen ~stack:(Iias.tap v_sink) ~port:5001 ~on_accept:(fun _ -> ()) ();
  let conn =
    Tcp.connect ~stack:(Iias.tap v_src) ~dst:(Iias.tap_addr v_sink)
      ~dst_port:5001 ()
  in
  Tcp.send_forever conn;
  Engine.run ~until:stop_at engine;
  Timeline.stop timeline;
  Profile.uninstall ();
  let stats = Tcp.stats conn in
  let mbps =
    float_of_int stats.Tcp.bytes_acked *. 8.0
    /. (float_of_int duration_s *. 1e6)
  in
  let doc =
    Timeline.document
      ~extra:
        [
          ("scenario", Export.Str "deter-iias-tcp-timeline");
          ("duration_s", Export.Num (float_of_int duration_s));
          ("seed", Export.Num (float_of_int seed));
          ("tcp_mbps", Export.Num mbps);
        ]
      timeline
  in
  (doc, mbps)
