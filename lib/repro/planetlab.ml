module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Datasets = Vini_topo.Datasets
module Underlay = Vini_phys.Underlay
module Pnode = Vini_phys.Pnode
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Iperf = Vini_measure.Iperf
module Ping = Vini_measure.Ping

type condition = Network | Iias_default | Iias_plvini

let condition_name = function
  | Network -> "Network"
  | Iias_default -> "IIAS on PlanetLab"
  | Iias_plvini -> "IIAS on PL-VINI"

type tcp_result = {
  mbps_mean : float;
  mbps_stddev : float;
  cpu_pct : float;
}

type ping_result = {
  p_min : float;
  p_avg : float;
  p_max : float;
  p_mdev : float;
  p_loss_pct : float;
}

type jitter_result = { jitter_mean_ms : float; jitter_stddev_ms : float }

(* The Abilene-colocated PlanetLab machines were 1.4 GHz / 1.267 GHz
   P-IIIs (§5.1.2); we give them an effective 2.0 GHz against the Xeon
   reference cost model (per-clock efficiency differs) — chosen so the
   PL-VINI forwarder lands near the paper's 40% CPU at ~86 Mb/s. *)
let node_speed_ghz = 2.0

let make ~seed ~condition =
  let engine = Engine.create ~seed () in
  let graph = Datasets.Planetlab3.topology () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:node_speed_ghz in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ~profile ()
  in
  let src = Datasets.Planetlab3.chicago in
  let dst = Datasets.Planetlab3.washington in
  match condition with
  | Network ->
      let client = Pnode.stack (Underlay.node underlay src) in
      let server = Pnode.stack (Underlay.node underlay dst) in
      (engine, client, server, None)
  | Iias_default | Iias_plvini ->
      let slice =
        match condition with
        | Iias_plvini -> Slice.pl_vini "iias"
        | Network | Iias_default -> Slice.default_share "iias"
      in
      let iias =
        Iias.create ~underlay ~slice
          ~vtopo:(Datasets.Planetlab3.topology ())
          ~embedding:Fun.id ()
      in
      Iias.start iias;
      let v_src = Iias.vnode iias src and v_dst = Iias.vnode iias dst in
      (engine, Iias.tap v_src, Iias.tap v_dst, Some iias)

(* Aggregate CPU across the three Click processes, like watching [ps] on
   the busiest node; the paper reports the forwarder's process. *)
let click_cpu iias =
  match iias with
  | None -> Time.zero
  | Some iias ->
      let fwdr = Iias.vnode iias Datasets.Planetlab3.new_york in
      Iias.cpu_time fwdr

let tcp_run ~duration_s ~seed ~condition =
  let engine, client, server, iias = make ~seed ~condition in
  let start = Time.sec 25 in
  let warmup = Time.sec 2 in
  let duration = Time.sec duration_s in
  let run = Iperf.tcp ~client ~server ~warmup ~start ~duration () in
  let window_open = Time.add start warmup in
  let cpu_before = ref Time.zero in
  ignore (Engine.at engine window_open (fun () -> cpu_before := click_cpu iias));
  Engine.run ~until:(Time.add window_open duration) engine;
  let cpu_used = Time.sub (click_cpu iias) !cpu_before in
  let cpu_pct =
    match iias with
    | None -> Float.nan
    | Some _ -> 100.0 *. Time.to_sec_f cpu_used /. Time.to_sec_f duration
  in
  (Iperf.tcp_mbps run, cpu_pct)

let tcp condition ?(runs = 5) ?(duration_s = 10) ?(seed = 5001) () =
  let results =
    List.init runs (fun i ->
        tcp_run ~duration_s ~seed:(seed + (41 * i)) ~condition)
  in
  let mbps = Vini_std.Stats.create () and cpu = Vini_std.Stats.create () in
  List.iter
    (fun (m, c) ->
      Vini_std.Stats.add mbps m;
      if not (Float.is_nan c) then Vini_std.Stats.add cpu c)
    results;
  {
    mbps_mean = Vini_std.Stats.mean mbps;
    mbps_stddev = Vini_std.Stats.stddev mbps;
    cpu_pct =
      (if Vini_std.Stats.is_empty cpu then Float.nan
       else Vini_std.Stats.mean cpu);
  }

let ping condition ?(count = 10_000) ?(seed = 6001) () =
  let engine, client, server, _ = make ~seed ~condition in
  Engine.run ~until:(Time.sec 25) engine;
  let dst = Vini_phys.Ipstack.local_addr server in
  let p = Ping.start ~stack:client ~dst ~count () in
  Engine.run ~until:(Time.sec 1200) engine;
  let rtts = Ping.rtt_ms p in
  {
    p_min = Vini_std.Stats.min rtts;
    p_avg = Vini_std.Stats.mean rtts;
    p_max = Vini_std.Stats.max rtts;
    p_mdev = Vini_std.Stats.mdev rtts;
    p_loss_pct = Ping.loss_pct p;
  }

let default_rates = [ 1.0; 5.0; 10.0; 15.0; 20.0; 25.0; 30.0; 35.0; 40.0; 45.0 ]

let one_udp ~condition ~seed ~duration_s ~rate_mbps =
  let engine, client, server, _ = make ~seed ~condition in
  let start = Time.sec 25 in
  let duration = Time.sec duration_s in
  let run =
    Iperf.udp ~client ~server ~rate_bps:(rate_mbps *. 1e6) ~start ~duration ()
  in
  Engine.run ~until:(Time.add (Time.add start duration) (Time.sec 2)) engine;
  (Iperf.udp_loss_pct run, Iperf.udp_jitter_ms run)

let jitter condition ?(seed = 7001) () =
  let duration_s = 10 in
  let stats = Vini_std.Stats.create () in
  List.iteri
    (fun i rate ->
      let _, j =
        one_udp ~condition ~seed:(seed + (13 * i)) ~duration_s ~rate_mbps:rate
      in
      Vini_std.Stats.add stats j)
    [ 1.0; 10.0; 25.0; 50.0 ];
  {
    jitter_mean_ms = Vini_std.Stats.mean stats;
    jitter_stddev_ms = Vini_std.Stats.stddev stats;
  }

let loss_sweep condition ?(rates_mbps = default_rates) ?(duration_s = 10)
    ?(seed = 8001) () =
  List.mapi
    (fun i rate ->
      let loss, _ =
        one_udp ~condition ~seed:(seed + (17 * i)) ~duration_s ~rate_mbps:rate
      in
      (rate, loss))
    rates_mbps
