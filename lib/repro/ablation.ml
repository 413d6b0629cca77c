module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Datasets = Vini_topo.Datasets
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Iperf = Vini_measure.Iperf
module Ping = Vini_measure.Ping

type knob_result = {
  label : string;
  mbps : float;
  ping_avg_ms : float;
  ping_mdev_ms : float;
}

let planetlab_overlay ~seed ~slice ?tunnel_rcvbuf_bytes () =
  let engine = Engine.create ~seed () in
  let graph = Datasets.Planetlab3.topology () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ~profile ()
  in
  let iias =
    Iias.create ~underlay ~slice ~vtopo:(Datasets.Planetlab3.topology ())
      ~embedding:Fun.id ?tunnel_rcvbuf_bytes ()
  in
  Iias.start iias;
  (engine, iias)

let endpoints iias =
  ( Iias.tap (Iias.vnode iias Datasets.Planetlab3.chicago),
    Iias.tap (Iias.vnode iias Datasets.Planetlab3.washington) )

let scheduler_knobs ?(duration_s = 5) () =
  let seed = 11001 in
  let cases =
    [
      ("fair share", Slice.create "a");
      ("reservation only", Slice.create ~reservation:0.25 "b");
      ("rt only", Slice.create ~realtime:true "c");
      ("reservation + rt (PL-VINI)", Slice.pl_vini "d");
    ]
  in
  List.mapi
    (fun i (label, slice) ->
      (* Throughput run. *)
      let engine, iias = planetlab_overlay ~seed:(seed + (7 * i)) ~slice () in
      let client, server = endpoints iias in
      let run =
        Iperf.tcp ~client ~server ~start:(Time.sec 25) ~warmup:(Time.sec 2)
          ~duration:(Time.sec duration_s) ()
      in
      Engine.run ~until:(Time.sec (27 + duration_s)) engine;
      let mbps = Iperf.tcp_mbps run in
      (* Latency run, separately (as the paper does). *)
      let engine, iias =
        planetlab_overlay ~seed:(seed + 1000 + (7 * i)) ~slice ()
      in
      let client, server = endpoints iias in
      Engine.run ~until:(Time.sec 25) engine;
      let ping =
        Ping.start ~stack:client
          ~dst:(Vini_phys.Ipstack.local_addr server)
          ~count:3000 ()
      in
      Engine.run ~until:(Time.sec 400) engine;
      {
        label;
        mbps;
        ping_avg_ms = Vini_std.Stats.mean (Ping.rtt_ms ping);
        ping_mdev_ms = Vini_std.Stats.mdev (Ping.rtt_ms ping);
      })
    cases

let buffer_sweep ?(duration_s = 10) () =
  let rate_mbps = 35.0 and seed = 12001 in
  List.mapi
    (fun i kb ->
      let engine, iias =
        planetlab_overlay ~seed:(seed + (13 * i))
          ~slice:(Slice.default_share "sweep")
          ~tunnel_rcvbuf_bytes:(kb * 1024) ()
      in
      let client, server = endpoints iias in
      let run =
        Iperf.udp ~client ~server ~rate_bps:(rate_mbps *. 1e6)
          ~start:(Time.sec 25)
          ~duration:(Time.sec duration_s) ()
      in
      Engine.run ~until:(Time.sec (27 + duration_s)) engine;
      (kb, Iperf.udp_loss_pct run))
    [ 16; 32; 64; 128; 256 ]

let timer_sweep () =
  let seed = 13001 in
  List.mapi
    (fun i (hello, dead) ->
      (* Detection delay depends on hello phase; average a few seeds. *)
      let samples =
        List.filter_map
          (fun j ->
            let r =
              Abilene.fig8_run ~seed:(seed + (17 * i) + j)
                ~ping_interval_ms:100 ~hello ~dead ()
            in
            let d = r.Abilene.detect_delay in
            if Float.is_nan d then None else Some d)
          [ 0; 1; 2 ]
      in
      let mean =
        match samples with
        | [] -> Float.nan
        | _ ->
            List.fold_left ( +. ) 0.0 samples
            /. float_of_int (List.length samples)
      in
      (hello, dead, mean))
    [ (1, 4); (2, 6); (5, 10); (10, 25) ]

(* --- isolation matrix ---------------------------------------------------- *)

let isolation_matrix () =
  let duration_s = 8 and seed = 14001 in
  let module Pnode = Vini_phys.Pnode in
  let run ~idx ~cpu_isolated ~htb =
    let engine = Engine.create ~seed:(seed + (11 * idx)) () in
    let graph = Datasets.Planetlab3.topology () in
    let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
    let underlay =
      Underlay.create ~engine
        ~rng:(Vini_std.Rng.split (Engine.rng engine))
        ~graph ~profile ()
    in
    if htb then
      List.iter
        (fun pnode ->
          Pnode.enable_egress_htb pnode ~rate_bps:100e6;
          Pnode.set_egress_class pnode ~name:"careful" ~assured_bps:40e6 ();
          Pnode.set_egress_class pnode ~name:"noisy" ())
        (Underlay.nodes underlay);
    let careful_slice =
      if cpu_isolated then Slice.pl_vini "careful"
      else Slice.default_share "careful"
    in
    let mk slice port =
      let iias =
        Iias.create ~underlay ~slice ~vtopo:(Datasets.Planetlab3.topology ())
          ~embedding:Fun.id ~tunnel_port:port ()
      in
      Iias.start iias;
      iias
    in
    let careful = mk careful_slice 33000 in
    let noisy = mk (Slice.default_share "noisy") 33100 in
    Engine.run ~until:(Time.sec 25) engine;
    let tap iias v = Iias.tap (Iias.vnode iias v) in
    (* The noisy experiment floods its own overlay for the whole window. *)
    ignore
      (Iperf.udp
         ~client:(tap noisy Datasets.Planetlab3.chicago)
         ~server:(tap noisy Datasets.Planetlab3.washington)
         ~rate_bps:60e6 ~start:(Time.sec 26)
         ~duration:(Time.sec (duration_s + 6))
         ());
    let tcp =
      Iperf.tcp
        ~client:(tap careful Datasets.Planetlab3.chicago)
        ~server:(tap careful Datasets.Planetlab3.washington)
        ~streams:10 ~start:(Time.sec 26) ~warmup:(Time.sec 2)
        ~duration:(Time.sec duration_s) ()
    in
    let ping =
      Ping.start
        ~stack:(tap careful Datasets.Planetlab3.chicago)
        ~dst:
          (Vini_phys.Ipstack.local_addr (tap careful Datasets.Planetlab3.washington))
        ~count:800 ()
    in
    Engine.run ~until:(Time.sec (40 + duration_s)) engine;
    ( Iperf.tcp_mbps tcp,
      Vini_std.Stats.mean (Ping.rtt_ms ping),
      Vini_std.Stats.mdev (Ping.rtt_ms ping) )
  in
  List.mapi
    (fun idx (label, cpu_isolated, htb) ->
      let mbps, avg, mdev = run ~idx ~cpu_isolated ~htb in
      { label; mbps; ping_avg_ms = avg; ping_mdev_ms = mdev })
    [
      ("no isolation", false, false);
      ("CPU isolation only (PL-VINI)", true, false);
      ("bandwidth isolation only (HTB)", false, true);
      ("CPU + bandwidth isolation", true, true);
    ]
