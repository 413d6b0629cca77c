module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Vini = Vini_core.Vini
module Experiment = Vini_core.Experiment
module Request = Vini_embed.Request
module Ping = Vini_measure.Ping
module Export = Vini_measure.Export

type result = {
  placement_before : int array;
  placement_after : int array;
  migrations : Vini.migration list;
  reembed_failures : (int * Vini_embed.Embed.rejection) list;
  migration_failures : (int * string) list;
  pings_sent : int;
  pings_received : int;
  ping_series : (float * float) list;
  export : Export.json;
}

let virtual_ring n =
  let names = Array.init n (Printf.sprintf "v%d") in
  let mk a b =
    { Graph.a; b; bandwidth_bps = 1e9; delay = Time.ms 2; loss = 0.0;
      weight = 10 }
  in
  (* Below three nodes a "ring" would duplicate its one link; degrade to a
     chain so any n >= 1 is a valid topology. *)
  let links =
    if n < 3 then List.init (max 0 (n - 1)) (fun i -> mk i (i + 1))
    else List.init n (fun i -> mk i ((i + 1) mod n))
  in
  Graph.create ~names ~links

let warmup_s = 30.0

let export_of_migration (m : Vini.migration) =
  {
    Export.mg_vnode = m.Vini.m_vnode;
    mg_from = m.Vini.m_from;
    mg_to = m.Vini.m_to;
    mg_kind =
      (match m.Vini.m_kind with
      | Vini.Planned -> "planned"
      | Vini.Crash_driven -> "crash");
    mg_down_s = Time.to_sec_f m.Vini.m_down_at;
    mg_restored_s = Time.to_sec_f m.Vini.m_restored_at;
    mg_cutover_loss = m.Vini.m_cutover_loss;
    mg_stretch_before = m.Vini.m_stretch_before;
    mg_stretch_after = m.Vini.m_stretch_after;
    mg_balance_before = m.Vini.m_balance_before;
    mg_balance_after = m.Vini.m_balance_after;
  }

(* Shared scaffolding of both scenarios: the virtual ring auto-placed on
   Abilene, 30 s of routing warmup, then pings across the ring while the
   disruption (a crash or a planned move) plays out. *)
let scenario ~seed ~vnodes ~events ~disrupt ~duration () =
  let g = Vini_rcc.Rcc.abilene () in
  let vtopo = virtual_ring vnodes in
  let engine = Engine.create ~seed () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:g ~profile () in
  let req =
    Request.make ~name:"migrate-demo" ~cpu:(fun _ -> 0.25) ~seed ()
  in
  let spec =
    Experiment.make ~name:"migrate-demo" ~slice:(Slice.pl_vini "migrate")
      ~vtopo
      ~placement:(Experiment.Auto req)
      ~events ()
  in
  let inst = Vini.deploy vini spec in
  let placement_before = Iias.current_embedding (Vini.iias inst) in
  Vini.start inst;
  let iias = Vini.iias inst in
  disrupt ~engine ~vini ~inst;
  Engine.run ~until:(Time.of_sec_f warmup_s) engine;
  let half = vnodes / 2 in
  let interval_ms = 250 in
  let count = int_of_float (duration *. 1000.0 /. float_of_int interval_ms) in
  let ping =
    Ping.start
      ~stack:(Iias.tap (Iias.vnode iias half))
      ~dst:(Iias.tap_addr (Iias.vnode iias 0))
      ~count
      ~mode:(Ping.Interval (Time.ms interval_ms))
      ~reply_timeout:(Time.ms 900) ()
  in
  Engine.run ~until:(Time.of_sec_f (warmup_s +. duration +. 5.0)) engine;
  let slices =
    [
      {
        Export.es_name = spec.Experiment.exp_name;
        es_vtopo = vtopo;
        es_request = req;
        es_result =
          (match Vini.mapping inst with
          | Some m -> Ok m
          | None -> assert false);
      };
    ]
  in
  let migrations = Vini.migrations inst in
  let export =
    Export.embed_document
      ~migrations:(List.map export_of_migration migrations)
      ~substrate:(Vini.substrate vini) ~slices ()
  in
  {
    placement_before;
    placement_after = Iias.current_embedding iias;
    migrations;
    reembed_failures = Vini.reembed_failures inst;
    migration_failures = Vini.migration_failures inst;
    pings_sent = Ping.sent ping;
    pings_received = Ping.received ping;
    ping_series = Ping.series ping;
    export;
  }

let run ?(seed = 4242) ?(vnodes = 6) ?(crash_at = 10.0) ?(duration = 40.0) () =
  scenario ~seed ~vnodes
    ~events:[ Experiment.at (warmup_s +. crash_at) (Experiment.Crash_pnode 0) ]
    ~disrupt:(fun ~engine:_ ~vini:_ ~inst:_ -> ())
    ~duration ()

let run_planned ?(seed = 4242) ?(vnodes = 6) ?(migrate_at = 10.0)
    ?(duration = 40.0) ?target () =
  let disrupt ~engine ~vini ~inst =
    ignore
      (Engine.at engine
         (Time.of_sec_f (warmup_s +. migrate_at))
         (fun () ->
           (* Default target: the first up spare machine — the solver
              would keep a lightly-loaded slice where it is, and this
              scenario is about exercising the cutover. *)
           let target =
             match target with
             | Some p -> p
             | None ->
                 let emb = Iias.current_embedding (Vini.iias inst) in
                 let n =
                   Graph.node_count
                     (Vini_embed.Substrate.graph (Vini.substrate vini))
                 in
                 let used p = Array.exists (( = ) p) emb in
                 let rec find p =
                   if p >= n then
                     invalid_arg "Migration.run_planned: no spare machine"
                   else if used p then find (p + 1)
                   else p
                 in
                 find 0
           in
           ignore (Vini.migrate ~target inst ~vnode:0)))
  in
  scenario ~seed ~vnodes ~events:[] ~disrupt ~duration ()

(* --- planned vs. crash-driven ------------------------------------------- *)

type comparison = {
  planned : result;
  crash : result;
  planned_downtime_s : float;
  crash_downtime_s : float;
  planned_cutover_loss : int;
  planned_ping_loss : int;
  crash_ping_loss : int;
}

let total_downtime r =
  List.fold_left
    (fun acc (m : Vini.migration) ->
      acc +. Time.to_sec_f (Time.sub m.Vini.m_restored_at m.Vini.m_down_at))
    0.0 r.migrations

let total_cutover_loss r =
  List.fold_left
    (fun acc (m : Vini.migration) ->
      acc + Option.value ~default:0 m.Vini.m_cutover_loss)
    0 r.migrations

let compare_modes ?(seed = 4242) ?(vnodes = 6) ?(at = 10.0)
    ?(duration = 40.0) () =
  let planned = run_planned ~seed ~vnodes ~migrate_at:at ~duration () in
  let crash = run ~seed ~vnodes ~crash_at:at ~duration () in
  {
    planned;
    crash;
    planned_downtime_s = total_downtime planned;
    crash_downtime_s = total_downtime crash;
    planned_cutover_loss = total_cutover_loss planned;
    planned_ping_loss = planned.pings_sent - planned.pings_received;
    crash_ping_loss = crash.pings_sent - crash.pings_received;
  }
