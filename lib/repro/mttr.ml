module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Supervisor = Vini_phys.Supervisor
module Iias = Vini_overlay.Iias
module Vini = Vini_core.Vini
module Experiment = Vini_core.Experiment
module Ping = Vini_measure.Ping
module Watchdog = Vini_measure.Watchdog

let topology () = Vini_rcc.Rcc.abilene ()
let warmup_s = 40.0
let total_s = 50.0

type fault = Node_crash of Supervisor.policy | Link_cut

let fault_label = function
  | Node_crash p -> Printf.sprintf "node-crash backoff=%.1fs" p.Supervisor.base_backoff
  | Link_cut -> "link-cut (control)"

type row = {
  label : string;
  detect_s : float;        (** failure -> traffic on the backup path *)
  lost_pings : int;
  recover_s : float;       (** repair -> traffic back on the primary path *)
  restarts : int;
  watchdog_violations : (string * int) list;
}

let run_one ?(seed = 9301) ~fault () =
  let fail_at = 10.0 and restore_at = 25.0 and ping_interval_ms = 250 in
  let g = topology () in
  let denver = Graph.id_of_name g "Denver" in
  let kansas_city = Graph.id_of_name g "Kansas-City" in
  let dc = Graph.id_of_name g "Washington-DC" in
  let seattle = Graph.id_of_name g "Seattle" in
  let events =
    match fault with
    | Node_crash _ ->
        [
          Experiment.at (warmup_s +. fail_at) (Experiment.Crash_pnode denver);
          Experiment.at (warmup_s +. restore_at)
            (Experiment.Restore_pnode denver);
        ]
    | Link_cut ->
        [
          Experiment.at (warmup_s +. fail_at)
            (Experiment.Fail_vlink (denver, kansas_city));
          Experiment.at (warmup_s +. restore_at)
            (Experiment.Restore_vlink (denver, kansas_city));
        ]
  in
  let engine = Engine.create ~seed () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:g ~profile () in
  let routing =
    Iias.Ospf_routing
      { hello = Time.sec 5; dead = Time.sec 10; spf_delay = Time.ms 200 }
  in
  let spec =
    Experiment.make ~name:"abilene-mttr" ~slice:(Slice.pl_vini "mttr")
      ~vtopo:g ~routing ~events ()
  in
  let inst = Vini.deploy vini spec in
  (match fault with
  | Node_crash policy -> Iias.enable_supervision ~policy (Vini.iias inst)
  | Link_cut -> ());
  Vini.start inst;
  let iias = Vini.iias inst in
  (* Start the watchdog after warmup so initial convergence is not
     (correctly but uninterestingly) flagged as blackholes. *)
  let wd = Watchdog.create ~engine ~overlay:iias ~vtopo:g () in
  Engine.run ~until:(Time.of_sec_f warmup_s) engine;
  Watchdog.start wd;
  let v_dc = Iias.vnode iias dc and v_sea = Iias.vnode iias seattle in
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
  let before =
    let pts = List.filter (fun (t, _) -> t < fail_at) series in
    if pts = [] then 0.0
    else
      List.fold_left (fun acc (_, r) -> acc +. r) 0.0 pts
      /. float_of_int (List.length pts)
  in
  (* The backup DC->Seattle path is ~17 ms longer than the primary. *)
  let detect_s =
    match
      List.find_opt (fun (t, r) -> t > fail_at && r > before +. 8.0) series
    with
    | Some (t, _) -> t -. fail_at
    | None -> Float.nan
  in
  let recover_s =
    match
      List.find_opt (fun (t, r) -> t > restore_at && r < before +. 4.0) series
    with
    | Some (t, _) -> t -. restore_at
    | None -> Float.nan
  in
  let restarts =
    match Iias.supervisor iias with
    | None -> 0
    | Some sup ->
        List.fold_left
          (fun acc name -> acc + Supervisor.restarts sup ~name)
          0 (Supervisor.children sup)
  in
  ( {
      label = fault_label fault;
      detect_s;
      lost_pings = Ping.sent ping - Ping.received ping;
      recover_s;
      restarts;
      watchdog_violations = Watchdog.counts_by_check wd;
    },
    wd,
    iias )

let sweep ?seed ?(backoffs = [ 0.5; 2.0; 8.0 ]) () =
  let run fault =
    let row, _, _ = run_one ?seed ~fault () in
    row
  in
  List.map
    (fun base_backoff ->
      run (Node_crash { Supervisor.default_policy with Supervisor.base_backoff }))
    backoffs
  @ [ run Link_cut ]

let row_strings rows =
  Printf.sprintf "%-28s %9s %6s %10s %8s %s" "scenario" "detect_s" "lost"
    "recover_s" "restarts" "violations"
  :: List.map
       (fun r ->
         Printf.sprintf "%-28s %9.2f %6d %10.2f %8d %s" r.label r.detect_s
           r.lost_pings r.recover_s r.restarts
           (if r.watchdog_violations = [] then "-"
            else
              String.concat ","
                (List.map
                   (fun (k, c) -> Printf.sprintf "%s=%d" k c)
                   r.watchdog_violations)))
       rows
