module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Ab = Vini_topo.Datasets.Abilene
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Vini = Vini_core.Vini
module Experiment = Vini_core.Experiment
module Ping = Vini_measure.Ping
module Tcp = Vini_transport.Tcp

let topology () = Vini_rcc.Rcc.abilene ()

(* PoP names in the rcc dataset use dashes; map to ids of that graph. *)
let dc g = Graph.id_of_name g "Washington-DC"
let seattle g = Graph.id_of_name g "Seattle"
let denver g = Graph.id_of_name g "Denver"
let kansas_city g = Graph.id_of_name g "Kansas-City"

let expected_paths () =
  let g = topology () in
  let names path = List.map (Graph.name g) path in
  let primary = Option.get (Graph.shortest_path g (dc g) (seattle g)) in
  let without l =
    if
      (l.Graph.a = denver g && l.Graph.b = kansas_city g)
      || (l.Graph.b = denver g && l.Graph.a = kansas_city g)
    then 100_000_000
    else l.Graph.weight
  in
  let backup =
    Option.get (Graph.shortest_path ~weight_of:without g (dc g) (seattle g))
  in
  (names primary, names backup)

(* PlanetLab nodes co-located with the 11 PoPs, running a PL-VINI slice. *)
let deploy ?(hello = 5) ?(dead = 10) ~seed ~events () =
  let engine = Engine.create ~seed () in
  let g = topology () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:g ~profile () in
  let routing =
    Iias.Ospf_routing
      {
        hello = Vini_sim.Time.sec hello;
        dead = Vini_sim.Time.sec dead;
        spf_delay = Vini_sim.Time.ms 200;
      }
  in
  let spec =
    Experiment.make ~name:"abilene-mirror" ~slice:(Slice.pl_vini "abilene")
      ~vtopo:g ~routing ~events ()
  in
  let inst = Vini.deploy vini spec in
  Vini.start inst;
  (engine, g, vini, inst)

(* Routing needs to be converged before the measurement clock starts. *)
let warmup_s = 40.0

type fig8 = {
  rtt_series : (float * float) list;
  rtt_before : float;
  rtt_after : float;
  detect_delay : float;
  restore_rtt : float;
}

let fig8_run ?(seed = 9001) ?(fail_at = 10.0) ?(restore_at = 34.0)
    ?(ping_interval_ms = 250) ?(hello = 5) ?(dead = 10) () =
  let events =
    [
      Experiment.at (warmup_s +. fail_at)
        (Experiment.Custom
           ( "fail Denver-KC",
             fun iias ->
               Iias.set_vlink_state iias
                 (denver (topology ()))
                 (kansas_city (topology ()))
                 false ));
      Experiment.at (warmup_s +. restore_at)
        (Experiment.Custom
           ( "restore Denver-KC",
             fun iias ->
               Iias.set_vlink_state iias
                 (denver (topology ()))
                 (kansas_city (topology ()))
                 true ));
    ]
  in
  let engine, g, _vini, inst = deploy ~hello ~dead ~seed ~events () in
  let iias = Vini.iias inst in
  Engine.run ~until:(Time.of_sec_f warmup_s) engine;
  let v_dc = Iias.vnode iias (dc g) and v_sea = Iias.vnode iias (seattle g) in
  let total_s = 50.0 in
  let count = int_of_float (total_s *. 1000.0 /. float_of_int ping_interval_ms) in
  let ping =
    Ping.start ~stack:(Iias.tap v_dc) ~dst:(Iias.tap_addr v_sea) ~count
      ~mode:(Ping.Interval (Time.ms ping_interval_ms))
      ~reply_timeout:(Time.ms 900) ()
  in
  Engine.run ~until:(Time.of_sec_f (warmup_s +. total_s +. 5.0)) engine;
  let series =
    List.map (fun (t, rtt) -> (t -. warmup_s, rtt)) (Ping.series ping)
  in
  let in_window a b = List.filter (fun (t, _) -> t >= a && t < b) series in
  let mean pts =
    if pts = [] then 0.0
    else List.fold_left (fun acc (_, r) -> acc +. r) 0.0 pts
         /. float_of_int (List.length pts)
  in
  let before = mean (in_window 0.0 fail_at) in
  (* Detection: first reply after the failure with a clearly different RTT
     (the backup path is ~17 ms longer). *)
  let detect =
    List.find_opt
      (fun (t, r) -> t > fail_at && r > before +. 8.0)
      series
  in
  let detect_delay =
    match detect with Some (t, _) -> t -. fail_at | None -> Float.nan
  in
  let after = mean (in_window (fail_at +. 10.0) restore_at) in
  let restored = mean (in_window (restore_at +. 8.0) total_s) in
  {
    rtt_series = series;
    rtt_before = before;
    rtt_after = after;
    detect_delay;
    restore_rtt = restored;
  }

type fig9 = {
  cumulative : (float * float) list;
  positions : (float * float) list;
  total_mb : float;
  stall_start : float;
  stall_end : float;
}

let fig9_run ?(seed = 9101) ?(fail_at = 10.0) ?(restore_at = 34.0) () =
  let rwnd = 32 * 1024 in
  let events =
    [
      Experiment.at (warmup_s +. fail_at)
        (Experiment.Custom
           ( "fail Denver-KC",
             fun iias ->
               Iias.set_vlink_state iias
                 (denver (topology ()))
                 (kansas_city (topology ()))
                 false ));
      Experiment.at (warmup_s +. restore_at)
        (Experiment.Custom
           ( "restore Denver-KC",
             fun iias ->
               Iias.set_vlink_state iias
                 (denver (topology ()))
                 (kansas_city (topology ()))
                 true ));
    ]
  in
  let engine, g, _vini, inst = deploy ~seed ~events () in
  let iias = Vini.iias inst in
  Engine.run ~until:(Time.of_sec_f warmup_s) engine;
  let v_dc = Iias.vnode iias (dc g) and v_sea = Iias.vnode iias (seattle g) in
  let dump = Vini_measure.Tcpdump.create engine in
  Tcp.listen ~stack:(Iias.tap v_sea) ~port:5001 ~rwnd
    ~on_accept:(fun conn -> Vini_measure.Tcpdump.attach dump conn)
    ();
  let conn =
    Tcp.connect ~stack:(Iias.tap v_dc) ~dst:(Iias.tap_addr v_sea)
      ~dst_port:5001 ~rwnd ()
  in
  Tcp.send_forever conn;
  let total_s = 50.0 in
  Engine.run ~until:(Time.of_sec_f (warmup_s +. total_s)) engine;
  let mb b = float_of_int b /. 1e6 in
  let cumulative =
    List.map
      (fun (t, b) -> (t -. warmup_s, mb b))
      (Vini_measure.Tcpdump.cumulative_bytes dump)
  in
  let positions =
    List.map
      (fun (t, s) -> (t -. warmup_s, mb s))
      (Vini_measure.Tcpdump.segment_positions dump)
  in
  let total_mb =
    match List.rev cumulative with (_, m) :: _ -> m | [] -> 0.0
  in
  let stall_start =
    let rec last_before acc = function
      | (t, _) :: rest when t <= fail_at +. 1.0 -> last_before t rest
      | _ -> acc
    in
    last_before 0.0 cumulative
  in
  let stall_end =
    match List.find_opt (fun (t, _) -> t > stall_start +. 1.0) cumulative with
    | Some (t, _) -> t
    | None -> Float.nan
  in
  { cumulative; positions; total_mb; stall_start; stall_end }

let upcall_demo ?(seed = 9201) () =
  let engine = Engine.create ~seed () in
  let g = Ab.topology () in
  let vini = Vini.create ~engine ~graph:g () in
  let small =
    Graph.create ~names:[| "a"; "b" |]
      ~links:
        [
          {
            Graph.a = 0;
            b = 1;
            bandwidth_bps = 1e9;
            delay = Time.ms 5;
            loss = 0.0;
            weight = 1;
          };
        ]
  in
  let mk name emb =
    Experiment.make ~name ~slice:(Slice.pl_vini name) ~vtopo:small
      ~embedding:emb ()
  in
  let i1 = Vini.deploy vini (mk "exp1" (fun v -> [| 0; 10 |].(v))) in
  let i2 = Vini.deploy vini (mk "exp2" (fun v -> [| 1; 9 |].(v))) in
  Vini.start i1;
  Vini.start i2;
  Engine.run ~until:(Time.sec 20) engine;
  Underlay.set_link_state (Vini.underlay vini) Ab.denver Ab.kansas_city false;
  Engine.run ~until:(Time.sec 25) engine;
  Underlay.set_link_state (Vini.underlay vini) Ab.denver Ab.kansas_city true;
  Engine.run ~until:(Time.sec 30) engine;
  (Vini.upcalls_delivered i1, Vini.upcalls_delivered i2)
