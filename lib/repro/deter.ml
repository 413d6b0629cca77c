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

(* ---- The instrumented replays (vini deter --metrics-out, --spans-out,
   --timeline-out) ------------------------------------------------------- *)

module Trace = Vini_sim.Trace
module Export = Vini_measure.Export
module Timeline = Vini_measure.Timeline
module Tcp = Vini_transport.Tcp

(* The scaffold the three replays share: converge the overlay to 25 s,
   then drive one bulk TCP transfer from src to sink for [duration_s] so
   the engine, Click elements, CPU schedulers and TCP all see load.
   [instrument] runs on the fresh overlay and returns its sampler, a hook
   run once the transfer is under way, and the exporter, which runs once
   the sampler has stopped and gets the fields every document carries. *)
let instrumented_run ~duration_s ~seed ~scenario instrument =
  let engine, underlay, iias = make_overlay ~seed () in
  let sampler, on_send, export = instrument engine underlay iias in
  let v_src = Iias.vnode iias Datasets.Deter.src in
  let v_sink = Iias.vnode iias Datasets.Deter.sink in
  Engine.run ~until:(Time.sec 25) engine;
  Tcp.listen ~stack:(Iias.tap v_sink) ~port:5001 ~on_accept:(fun _ -> ()) ();
  let conn =
    Tcp.connect ~stack:(Iias.tap v_src) ~dst:(Iias.tap_addr v_sink)
      ~dst_port:5001 ()
  in
  Tcp.send_forever conn;
  on_send conn;
  Engine.run ~until:(Time.sec (25 + duration_s)) engine;
  Timeline.stop sampler;
  let mbps =
    float_of_int (Tcp.stats conn).Tcp.bytes_acked *. 8.0
    /. (float_of_int duration_s *. 1e6)
  in
  ( export
      [
        ("scenario", Export.Str scenario);
        ("duration_s", Export.Num (float_of_int duration_s));
        ("seed", Export.Num (float_of_int seed));
        ("tcp_mbps", Export.Num mbps);
      ],
    mbps )

let observability_run ?(duration_s = 2) ?(seed = 7001)
    ?(trace_categories = Trace.Category.all) () =
  instrumented_run ~duration_s ~seed ~scenario:"deter-iias-tcp"
    (fun engine underlay iias ->
      Engine.set_profiling engine true;
      let trace = Trace.create ~capacity:8192 ~categories:trace_categories () in
      Trace.install trace;
      let sampler = Timeline.create ~engine ~interval:(Time.ms 200) () in
      Timeline.watch_engine sampler engine;
      Timeline.watch_vnode sampler (Iias.vnode iias Datasets.Deter.fwdr)
        ~prefix:"click.fwdr";
      Timeline.watch_vnode sampler (Iias.vnode iias Datasets.Deter.sink)
        ~prefix:"click.sink";
      let fwdr_node = Underlay.node underlay Datasets.Deter.fwdr in
      Timeline.watch_cpu sampler ~prefix:"phys.fwdr" (Pnode.cpu fwdr_node);
      Timeline.counter sampler ~name:"phys.fwdr.kernel_cpu_s" (fun () ->
          Time.to_sec_f (Pnode.kernel_cpu_time fwdr_node));
      (* The sender's series join the sampler once the connection exists,
         so they hold only the transfer window's snapshots. *)
      ( sampler,
        Timeline.watch_tcp sampler ~prefix:"tcp.src",
        fun extra ->
          Trace.uninstall ();
          Export.document ~trace ~extra sampler ))

module Packet = Vini_net.Packet
module Ipstack = Vini_phys.Ipstack
module Sspan = Vini_sim.Span
module Mspan = Vini_measure.Span

(* A quarter of the recorder's default ring: plenty for the traffic
   window's trees while keeping the JSON artifact CI-friendly. *)
let spans_run ?(duration_s = 2) ?(seed = 7001) () =
  instrumented_run ~duration_s ~seed ~scenario:"deter-iias-tcp-spans"
    (fun engine _underlay iias ->
      (* Installing the recorder before convergence means even
         routing-protocol chatter gets causal trees. *)
      let recorder = Sspan.create ~capacity:65_536 () in
      Sspan.install recorder;
      let sampler = Timeline.create ~engine ~interval:(Time.ms 200) () in
      Timeline.watch_recorder sampler ~prefix:"spans" recorder;
      let v_src = Iias.vnode iias Datasets.Deter.src in
      let v_sink = Iias.vnode iias Datasets.Deter.sink in
      (* TTL-limited probes guarantee the artifact exercises drop
         forensics: each dies mid-path with a recorded path-so-far.  They
         go in near the end of the window so bulk-TCP records can't wrap
         the ring past them before the export. *)
      let probes _conn =
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
               done))
      in
      ( sampler,
        probes,
        fun extra ->
          Timeline.register_breakdown sampler ~prefix:"spans"
            (Mspan.trees recorder);
          Sspan.uninstall ();
          Export.spans_document
            ~extra:(extra @ [ ("metrics", Export.document sampler) ])
            recorder ))

(* ---- The timeline run (CI's vini.timeline/1 artifact) ------------------ *)

module Profile = Vini_sim.Profile
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
  instrumented_run ~duration_s ~seed ~scenario:"deter-iias-tcp-timeline"
    (fun engine _underlay iias ->
      let profile = Profile.create () in
      Profile.install profile;
      let sampler =
        Timeline.create ~engine ~interval:(Time.ms interval_ms) ()
      in
      Timeline.watch_engine sampler engine;
      Timeline.watch_profile sampler profile;
      Timeline.watch_overlay sampler iias;
      Timeline.watch_process sampler ~prefix:"click.fwdr"
        (Iias.process (Iias.vnode iias Datasets.Deter.fwdr));
      let pool, ring =
        dp_loop engine ~until:(Time.sec (25 + duration_s))
      in
      Timeline.watch_pool sampler ~prefix:"dp.pool" pool;
      Timeline.watch_ring sampler ~prefix:"dp.ring" ring;
      ( sampler,
        ignore,
        fun extra ->
          Profile.uninstall ();
          Timeline.document ~extra sampler ))
