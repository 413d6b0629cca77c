(* The vini command-line tool: run the paper's experiments, inspect the
   built-in topologies, and mirror arbitrary router configurations into a
   convergence experiment. *)

open Cmdliner
open Vini_repro
module Report = Vini_measure.Report

let f = Report.fmt_f

(* The §5 tables print the paper's figure next to ours, column by column.
   [paired_header ["Mb/s"; "std"]] is [""; "paper Mb/s"; "ours Mb/s";
   "paper std"; "ours std"]; [paired name paper ours] fills such a row. *)
let paired_header cols =
  "" :: List.concat_map (fun c -> [ "paper " ^ c; "ours " ^ c ]) cols

let paired name paper ours =
  name :: List.concat (List.map2 (fun p o -> [ p; o ]) paper ours)

(* --- shared options ------------------------------------------------------ *)

let runs_arg =
  let doc = "Repetitions for throughput experiments (the paper used 10)." in
  Arg.(value & opt int 3 & info [ "r"; "runs" ] ~docv:"N" ~doc)

let seconds_arg =
  let doc =
    "Measurement window per run, in simulated seconds.  Table 6's jitter \
     runs keep the paper's 10 s window."
  in
  Arg.(value & opt int 5 & info [ "s"; "seconds" ] ~docv:"SEC" ~doc)

let seed_arg =
  let doc = "Base random seed (runs are deterministic given a seed)." in
  Arg.(value & opt int 1001 & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_cats_conv =
  let parser s =
    if s = "all" then Ok Vini_sim.Trace.Category.all
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            let name = String.trim name in
            match Vini_sim.Trace.Category.of_name name with
            | Some c -> go (c :: acc) rest
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "unknown trace category %S (expected 'all' or a \
                        comma-separated subset of: %s)"
                       name
                       (String.concat ", "
                          (List.map Vini_sim.Trace.Category.name
                             Vini_sim.Trace.Category.all)))))
      in
      go [] (String.split_on_char ',' s)
  in
  let printer ppf cats =
    Format.pp_print_string ppf
      (String.concat "," (List.map Vini_sim.Trace.Category.name cats))
  in
  Arg.conv (parser, printer)

let trace_arg =
  let doc =
    "Record a typed event trace.  $(docv) is 'all' or a comma-separated \
     subset of: packet_tx, packet_rx, packet_drop, route_update, \
     sched_latency, fault_injected, process_lifecycle, watchdog, custom.  \
     An unknown name is rejected with the valid list."
  in
  Arg.(value & opt (some trace_cats_conv) None
       & info [ "trace"; "trace-categories" ] ~docv:"CATS" ~doc)

let spans_out_arg =
  let doc =
    "Install the per-packet flight recorder and write its vini.spans/1 \
     JSON document (causal trees as Chrome traceEvents, latency \
     attribution, drop forensics) to $(docv).  Inspect with $(b,vini \
     spans)."
  in
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write metrics (time series, latency histograms, and the trace when \
     $(b,--trace) is given) as a vini.metrics/1 JSON document to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let timeline_out_arg =
  let doc =
    "Install the runtime profiler and write its vini.timeline/1 JSON \
     document (periodic engine/profiler/overlay snapshots on the \
     simulated clock) to $(docv).  Inspect with $(b,vini top).  \
     Deterministic: byte-identical for a given $(b,--seed)."
  in
  Arg.(value & opt (some string) None
       & info [ "timeline-out" ] ~docv:"FILE" ~doc)

let timeline_interval_arg =
  let doc =
    "Snapshot interval for $(b,--timeline-out), in simulated \
     milliseconds."
  in
  Arg.(value & opt int 1000
       & info [ "timeline-interval" ] ~docv:"MS" ~doc)

(* Physical substrates addressable by name ([vini run], [vini embed]).
   "mesh" is a generous default: 16 well-connected Waxman sites.  A
   [.json] path loads a generated vini.topo/1 substrate ([vini gen]). *)
let physical_topology ~seed = function
  | "abilene" -> Abilene.topology ()
  | "deter" -> Vini_topo.Datasets.Deter.topology ()
  | "planetlab3" -> Vini_topo.Datasets.Planetlab3.topology ()
  | "nlr" -> Vini_topo.Datasets.Nlr.topology ()
  | "mesh" -> Vini_topo.Datasets.waxman ~rng:(Vini_std.Rng.create seed) ~n:16 ()
  | path when Filename.check_suffix path ".json" -> (
      match Vini_scenario.Generate.load_file path with
      | Ok g -> g
      | Error e -> failwith (path ^ ": " ^ e))
  | other -> failwith ("unknown substrate " ^ other)

(* Dump the "trace" part of an export document as one line per event. *)
let print_trace_events doc =
  let module E = Vini_measure.Export in
  let events =
    match Option.bind (E.member "trace" doc) (E.member "events") with
    | Some ev -> Option.value ~default:[] (E.to_list ev)
    | None -> []
  in
  let str name ev =
    Option.value ~default:"" (Option.bind (E.member name ev) E.to_str)
  in
  List.iter
    (fun ev ->
      let t =
        Option.value ~default:0.0
          (Option.bind (E.member "t" ev) E.to_float)
      in
      Printf.printf "%12.6f %-14s %-5s %-20s" t (str "category" ev)
        (str "severity" ev) (str "component" ev);
      (match ev with
      | E.Obj fields ->
          List.iter
            (fun (k, v) ->
              match k with
              | "t" | "category" | "severity" | "component" -> ()
              | _ ->
                  let rendered =
                    match v with
                    | E.Str s -> s
                    | E.Num x -> Printf.sprintf "%g" x
                    | other -> E.to_string other
                  in
                  Printf.printf " %s=%s" k rendered)
            fields
      | _ -> ());
      print_newline ())
    events;
  Printf.printf "(%d events shown)\n" (List.length events)

(* --- deter ---------------------------------------------------------------- *)

let deter_cmd =
  let run runs seconds seed trace metrics_out spans_out timeline_out
      timeline_interval =
    let net = Deter.network_tcp ~runs ~duration_s:seconds ~seed () in
    let iias = Deter.iias_tcp ~runs ~duration_s:seconds ~seed:(seed + 1000) () in
    let tcp_row name paper (r : Deter.tcp_result) =
      paired name paper [ f r.Deter.mbps_mean; f r.mbps_stddev; f r.fwdr_cpu_pct ]
    in
    Report.table ~title:"Table 2: TCP throughput test on DETER testbed"
      ~header:(paired_header [ "Mb/s"; "std"; "CPU%" ])
      ~rows:
        [
          tcp_row "Network" [ "940"; "0"; "48" ] net;
          tcp_row "IIAS" [ "195"; "0.843"; "99" ] iias;
        ];
    let pn = Deter.network_ping ~seed:(seed + 2000) () in
    let pi = Deter.iias_ping ~seed:(seed + 3000) () in
    let ping_row name paper (r : Deter.ping_result) =
      paired name paper [ f r.Deter.p_min; f r.p_avg; f r.p_max; f r.p_mdev ]
      @ [ f r.p_loss_pct ]
    in
    Report.table ~title:"Table 3: ping results on DETER (ms)"
      ~header:(paired_header [ "min"; "avg"; "max"; "mdev" ] @ [ "ours loss%" ])
      ~rows:
        [
          ping_row "Network" [ "0.193"; "0.414"; "0.593"; "0.089" ] pn;
          ping_row "IIAS" [ "0.269"; "0.547"; "0.783"; "0.080" ] pi;
        ];
    (match (trace, metrics_out) with
    | None, None -> ()
    | cats, out ->
        (* One extra, fully-instrumented IIAS run feeding the observability
           layer: engine/CPU/TCP histograms, Click counters, and (with
           [--trace]) the typed event ring. *)
        let trace_categories = Option.value cats ~default:[] in
        let doc, mbps =
          Deter.observability_run ~duration_s:seconds ~seed:(seed + 4000)
            ~trace_categories ()
        in
        Printf.printf "\ninstrumented IIAS TCP run: %.1f Mb/s\n" mbps;
        (match out with
        | Some path ->
            Vini_measure.Export.write ~path doc;
            Printf.printf "metrics written to %s\n" path
        | None -> print_trace_events doc));
    Option.iter
      (fun path ->
        (* A flight-recorded IIAS run: every packet's causal tree, with
           TTL-doomed probes so the artifact always has drop forensics. *)
        let doc, mbps =
          Deter.spans_run ~duration_s:seconds ~seed:(seed + 5000) ()
        in
        Printf.printf "\nflight-recorded IIAS TCP run: %.1f Mb/s\n" mbps;
        Vini_measure.Export.write ~path doc;
        Printf.printf "spans written to %s\n" path)
      spans_out;
    Option.iter
      (fun path ->
        (* A self-observed IIAS run: runtime profiler installed, periodic
           snapshots on the simulated clock. *)
        if timeline_interval < 1 then
          failwith "--timeline-interval must be at least 1 ms";
        let doc, mbps =
          Deter.timeline_run ~duration_s:seconds ~seed:(seed + 6000)
            ~interval_ms:timeline_interval ()
        in
        Printf.printf "\nself-observed IIAS TCP run: %.1f Mb/s\n" mbps;
        Vini_measure.Export.write ~path doc;
        Printf.printf "timeline written to %s\n" path)
      timeline_out
  in
  let doc = "Microbenchmark #1: overlay efficiency on dedicated hardware (§5.1.1)." in
  Cmd.v (Cmd.info "deter" ~doc)
    Term.(const run $ runs_arg $ seconds_arg $ seed_arg $ trace_arg
          $ metrics_out_arg $ spans_out_arg $ timeline_out_arg
          $ timeline_interval_arg)

(* --- planetlab -------------------------------------------------------------- *)

let planetlab_cmd =
  let run runs seconds seed =
    let open Planetlab in
    (* (condition, Table 4 paper Mb/s/std/CPU%, Table 5 paper
       min/avg/max/mdev, Table 6 paper mean/std) *)
    let conditions =
      [
        (Network, [ "90.8"; "0.53"; "n/a" ], [ "24.4"; "24.5"; "28.2"; "0.2" ],
         [ "0.27"; "0.16" ]);
        (Iias_default, [ "22.5"; "4.01"; "13" ],
         [ "24.7"; "27.7"; "80.9"; "4.8" ], [ "2.4"; "3.7" ]);
        (Iias_plvini, [ "86.2"; "0.64"; "40" ],
         [ "24.7"; "25.1"; "28.6"; "0.38" ], [ "1.3"; "0.9" ]);
      ]
    in
    Report.table ~title:"Table 4: TCP throughput test on PlanetLab"
      ~header:(paired_header [ "Mb/s"; "std"; "CPU%" ])
      ~rows:
        (List.map
           (fun (c, paper, _, _) ->
             let r = tcp c ~runs ~duration_s:seconds ~seed:(seed + 4000) () in
             paired (condition_name c) paper
               [ f r.mbps_mean; f r.mbps_stddev;
                 (if Float.is_nan r.cpu_pct then "n/a" else f r.cpu_pct) ])
           conditions);
    Report.table ~title:"Table 5: ping results on PlanetLab (ms)"
      ~header:(paired_header [ "min"; "avg"; "max"; "mdev" ])
      ~rows:
        (List.map
           (fun (c, _, paper, _) ->
             let p = ping c ~seed:(seed + 5000) () in
             paired (condition_name c) paper
               [ f p.p_min; f p.p_avg; f p.p_max; f p.p_mdev ])
           conditions);
    Report.table ~title:"Table 6: jitter on PlanetLab (ms)"
      ~header:(paired_header [ "mean"; "std" ])
      ~rows:
        (List.map
           (fun (c, _, _, paper) ->
             let j = jitter c ~seed:(seed + 6000) () in
             paired (condition_name c) paper
               [ f j.jitter_mean_ms; f j.jitter_stddev_ms ])
           conditions);
    let sweep c = loss_sweep c ~duration_s:seconds ~seed:(seed + 7000) () in
    let net = sweep Network and dflt = sweep Iias_default
    and plv = sweep Iias_plvini in
    Report.table
      ~title:
        "Figure 6: packet loss vs UDP rate (paper: (a) default share climbs \
         to ~14%, (b) PL-VINI stays near the network's ~0%)"
      ~header:[ "rate Mb/s"; "Network %"; "default share %"; "PL-VINI %" ]
      ~rows:
        (List.map2
           (fun (rate, ln) ((_, ld), (_, lp)) -> [ f rate; f ln; f ld; f lp ])
           net (List.combine dflt plv));
    Report.series ~title:"Figure 6(a): IIAS loss, default share"
      ~x_label:"Mb/s" ~y_label:"loss %" dflt
  in
  let doc = "Microbenchmark #2: the overlay on shared PlanetLab nodes (§5.1.2)." in
  Cmd.v (Cmd.info "planetlab" ~doc)
    Term.(const run $ runs_arg $ seconds_arg $ seed_arg)

(* --- abilene ------------------------------------------------------------------ *)

let abilene_cmd =
  let run seed fail_at restore_at =
    let r = Abilene.fig8_run ~seed:(seed + 8000) ~fail_at ~restore_at () in
    Report.table
      ~title:
        (Printf.sprintf
           "Figure 8: ping D.C.->Seattle through Denver-KC failure (fail \
            @%gs, restore @%gs)"
           fail_at restore_at)
      ~header:[ ""; "paper"; "ours" ]
      ~rows:
        [
          [ "RTT before failure (ms)"; "76"; f r.Abilene.rtt_before ];
          [ "RTT on backup path (ms)"; "93"; f r.rtt_after ];
          [ "detection delay (s)"; "~7"; f r.detect_delay ];
          [ "RTT after restore (ms)"; "76"; f r.restore_rtt ];
        ];
    Report.series ~title:"Figure 8: RTT vs time" ~x_label:"s" ~y_label:"ms"
      r.Abilene.rtt_series;
    let t = Abilene.fig9_run ~seed:(seed + 8100) ~fail_at ~restore_at () in
    Report.table
      ~title:"Figure 9: TCP (16KB window) D.C.->Seattle through the failure"
      ~header:[ ""; "paper"; "ours" ]
      ~rows:
        [
          [ "total transferred (MB)"; "~12"; f t.Abilene.total_mb ];
          [ "stall starts (s)"; "10"; f t.stall_start ];
          [ "transfer resumes (s)"; "18"; f t.stall_end ];
        ];
    Report.series ~title:"Figure 9(a): MB transferred vs time" ~x_label:"s"
      ~y_label:"MB" t.Abilene.cumulative;
    Report.series
      ~title:"Figure 9(b): slow-start restart (stream position at resume)"
      ~x_label:"s" ~y_label:"MB in stream"
      (List.filter
         (fun (at, _) -> at >= t.stall_end -. 0.5 && at <= t.stall_end +. 2.0)
         t.Abilene.positions)
  in
  let fail_arg =
    Arg.(value & opt float 10.0 & info [ "fail-at" ] ~docv:"SEC"
           ~doc:"When to fail Denver-Kansas City (s).")
  in
  let restore_arg =
    Arg.(value & opt float 34.0 & info [ "restore-at" ] ~docv:"SEC"
           ~doc:"When to restore the link (s).")
  in
  let doc = "The §5.2 intra-domain routing experiment on the Abilene mirror." in
  Cmd.v (Cmd.info "abilene" ~doc)
    Term.(const run $ seed_arg $ fail_arg $ restore_arg)

(* --- topo ---------------------------------------------------------------------- *)

let topo_cmd =
  let run name configs =
    let g =
      match name with
      | "abilene" -> Abilene.topology ()
      | "deter" -> Vini_topo.Datasets.Deter.topology ()
      | "planetlab3" -> Vini_topo.Datasets.Planetlab3.topology ()
      | "nlr" -> Vini_topo.Datasets.Nlr.topology ()
      | other -> failwith ("unknown topology " ^ other)
    in
    Format.printf "%a@?" Vini_topo.Graph.pp g;
    if name = "abilene" then begin
      let primary, backup = Abilene.expected_paths () in
      Printf.printf "D.C.->Seattle primary : %s\n" (String.concat " > " primary);
      Printf.printf "D.C.->Seattle backup  : %s\n" (String.concat " > " backup)
    end;
    if configs then begin
      Printf.printf "\n--- generated XORP configuration (node 0) ---\n%s"
        (Vini_rcc.Rcc.xorp_config g 0);
      Printf.printf "\n--- generated Click configuration (node 0) ---\n%s"
        (Vini_rcc.Rcc.click_config g 0)
    end
  in
  let name_arg =
    Arg.(value & pos 0 string "abilene"
         & info [] ~docv:"NAME" ~doc:"abilene, nlr, deter, or planetlab3.")
  in
  let configs_arg =
    Arg.(value & flag & info [ "configs" ]
           ~doc:"Also print generated XORP/Click configurations.")
  in
  let doc = "Inspect a built-in topology (Figure 7 and friends)." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ name_arg $ configs_arg)

(* --- mirror -------------------------------------------------------------------- *)

let mirror_cmd =
  let run file fail_spec seed =
    let text =
      match file with
      | None -> Vini_rcc.Rcc.abilene_text ()
      | Some path -> In_channel.with_open_bin path In_channel.input_all
    in
    let cfgs =
      match Vini_rcc.Config.parse_many text with
      | Ok cfgs -> cfgs
      | Error e -> failwith ("config parse error: " ^ e)
    in
    (match Vini_rcc.Rcc.audit cfgs with
    | [] -> Printf.printf "audit: clean (%d routers)\n" (List.length cfgs)
    | faults ->
        Printf.printf "audit found %d fault(s):\n" (List.length faults);
        List.iter (fun x -> Printf.printf "  - %s\n" x) faults;
        failwith "refusing to mirror a faulty configuration");
    let g =
      match Vini_rcc.Rcc.build_topology cfgs with
      | Ok g -> g
      | Error e -> failwith e
    in
    Format.printf "%a@?" Vini_topo.Graph.pp g;
    (* Run a convergence experiment: ping across the diameter while the
       requested link (default: the first) fails at t=10 and heals at t=34. *)
    let module Graph = Vini_topo.Graph in
    let module Engine = Vini_sim.Engine in
    let module Time = Vini_sim.Time in
    let a, b =
      match fail_spec with
      | Some s -> (
          match String.split_on_char ',' s with
          | [ x; y ] ->
              let id n =
                match Graph.id_of_name_opt g n with
                | Some i -> i
                | None ->
                    failwith
                      (Printf.sprintf "--fail: topology %S has no node %S"
                         (Graph.label g) n)
              in
              (id x, id y)
          | _ -> failwith "expected --fail NAME,NAME")
      | None ->
          let l = List.hd (Graph.links g) in
          (l.Graph.a, l.Graph.b)
    in
    let engine = Engine.create ~seed () in
    let vini = Vini_core.Vini.create ~engine ~graph:g () in
    let spec =
      Vini_core.Experiment.make ~name:"mirror"
        ~slice:(Vini_phys.Slice.pl_vini "mirror") ~vtopo:g
        ~events:
          [
            Vini_core.Experiment.at 50.0 (Vini_core.Experiment.Fail_vlink (a, b));
            Vini_core.Experiment.at 74.0
              (Vini_core.Experiment.Restore_vlink (a, b));
          ]
        ()
    in
    let inst = Vini_core.Vini.deploy vini spec in
    Vini_core.Vini.start inst;
    Engine.run ~until:(Time.sec 40) engine;
    let iias = Vini_core.Vini.iias inst in
    (* Ping across the graph's diameter. *)
    let src = 0 and dst = Graph.node_count g - 1 in
    let ping =
      Vini_measure.Ping.start
        ~stack:(Vini_overlay.Iias.tap (Vini_overlay.Iias.vnode iias src))
        ~dst:(Vini_overlay.Iias.tap_addr (Vini_overlay.Iias.vnode iias dst))
        ~count:200
        ~mode:(Vini_measure.Ping.Interval (Time.ms 500))
        ()
    in
    Engine.run ~until:(Time.sec 145) engine;
    Printf.printf "\nfailing %s--%s at t=10s, restoring at t=34s\n"
      (Graph.name g a) (Graph.name g b);
    Report.series
      ~title:
        (Printf.sprintf "ping %s -> %s RTT during the event" (Graph.name g src)
           (Graph.name g dst))
      ~x_label:"s" ~y_label:"ms"
      (List.map
         (fun (t, r) -> (t -. 40.0, r))
         (Vini_measure.Ping.series ping))
  in
  let file_arg =
    Arg.(value & opt (some file) None
         & info [ "configs" ] ~docv:"FILE"
             ~doc:"Router configuration file (default: embedded Abilene).")
  in
  let fail_arg =
    Arg.(value & opt (some string) None
         & info [ "fail" ] ~docv:"A,B"
             ~doc:"Link to fail, by router names (default: first link).")
  in
  let doc =
    "Mirror router configurations into a virtual network and run a \
     convergence experiment (the §6.2 pipeline)."
  in
  Cmd.v (Cmd.info "mirror" ~doc) Term.(const run $ file_arg $ fail_arg $ seed_arg)

(* --- ablate ---------------------------------------------------------------------- *)

let ablate_cmd =
  let run seconds =
    let knob_rows =
      List.map (fun (r : Ablation.knob_result) ->
          [ r.Ablation.label; f r.mbps; f r.ping_avg_ms; f r.ping_mdev_ms ])
    in
    Report.table
      ~title:
        "Ablation A: which PL-VINI scheduler knob does the work? (Table 4/5 \
         decomposed)"
      ~header:[ "slice treatment"; "TCP Mb/s"; "ping avg ms"; "ping mdev ms" ]
      ~rows:(knob_rows (Ablation.scheduler_knobs ~duration_s:seconds ()));
    Report.table
      ~title:
        "Ablation B: Figure 6's loss is socket-buffer overflow (35 Mb/s CBR, \
         default share)"
      ~header:[ "rcvbuf KB"; "loss %" ]
      ~rows:
        (List.map
           (fun (kb, loss) -> [ string_of_int kb; f loss ])
           (Ablation.buffer_sweep ~duration_s:seconds ()));
    Report.table
      ~title:
        "Isolation study (§3.4): a measuring experiment vs a 60 Mb/s noisy \
         neighbour on shared nodes"
      ~header:[ "isolation"; "TCP Mb/s"; "ping avg ms"; "ping mdev ms" ]
      ~rows:(knob_rows (Ablation.isolation_matrix ()));
    Report.table ~title:"Ablation C: failure detection tracks the OSPF dead interval"
      ~header:[ "hello s"; "dead s"; "detection s" ]
      ~rows:
        (List.map
           (fun (h, d, det) -> [ string_of_int h; string_of_int d; f det ])
           (Ablation.timer_sweep ()))
  in
  let doc = "Ablation studies of the design choices (scheduler knobs, socket \
             buffers, OSPF timers)." in
  Cmd.v (Cmd.info "ablate" ~doc) Term.(const run $ seconds_arg)

(* --- run ----------------------------------------------------------------------- *)

let run_cmd =
  let run spec_file phys_name watch seed duration trace metrics_out report_out
      spans_out timeline_out timeline_interval embed_out scenario_out =
    let module Engine = Vini_sim.Engine in
    let module Time = Vini_sim.Time in
    let module Graph = Vini_topo.Graph in
    let text =
      match spec_file with
      | None -> Vini_core.Spec_lang.example
      | Some path -> In_channel.with_open_bin path In_channel.input_all
    in
    let parsed =
      match Vini_core.Spec_lang.parse text with
      | Ok p -> p
      | Error e -> failwith ("spec error: " ^ e)
    in
    (* A [topology ...] line in the spec wins over [--phys]: the declared
       substrate is resolved here and used for both the underlay and the
       elaboration, so embed targets resolve against the same graph. *)
    let phys, phys_name =
      match Vini_core.Spec_lang.substrate_graph parsed with
      | Ok (Some g) -> (g, Graph.label g)
      | Ok None -> (physical_topology ~seed phys_name, phys_name)
      | Error e -> failwith ("spec error: " ^ e)
    in
    let spec =
      match Vini_core.Spec_lang.to_spec parsed ~phys with
      | Ok s -> s
      | Error e -> failwith ("spec error: " ^ e)
    in
    Printf.printf "experiment %S: %d virtual nodes on substrate %S\n"
      spec.Vini_core.Experiment.exp_name
      (Graph.node_count spec.Vini_core.Experiment.vtopo)
      phys_name;
    (match spec.Vini_core.Experiment.scenario with
    | Some sc ->
        Printf.printf
          "scenario: %d simulated users, %s fidelity (tick %.0f ms)\n"
          sc.Vini_core.Experiment.workload.Vini_scenario.Workload.users
          (Vini_scenario.Fluid.fidelity_to_string
             sc.Vini_core.Experiment.fidelity)
          (Time.to_ms_f sc.Vini_core.Experiment.tick)
    | None -> ());
    let engine = Engine.create ~seed () in
    let tracer =
      Option.map
        (fun categories ->
          let t = Vini_sim.Trace.create ~categories () in
          Vini_sim.Trace.install t;
          t)
        trace
    in
    let recorder =
      Option.map
        (fun _ ->
          let r = Vini_sim.Span.create () in
          Vini_sim.Span.install r;
          r)
        spans_out
    in
    let metrics =
      Option.map
        (fun _ ->
          Engine.set_profiling engine true;
          let m = Vini_measure.Timeline.create ~engine () in
          Vini_measure.Timeline.watch_engine m engine;
          m)
        metrics_out
    in
    let vini = Vini_core.Vini.create ~engine ~graph:phys () in
    let inst = Vini_core.Vini.deploy vini spec in
    (* Converge before the measurement clock starts. *)
    Vini_core.Vini.start inst;
    let iias = Vini_core.Vini.iias inst in
    (* [--timeline-out] installs the runtime profiler (one load + test on
       every instrumented hot path; never perturbs the schedule) and a
       sim-clock sampler over the engine, the profiler and the overlay. *)
    let profile =
      Option.map
        (fun _ ->
          let p = Vini_sim.Profile.create () in
          Vini_sim.Profile.install p;
          p)
        timeline_out
    in
    let timeline =
      Option.map
        (fun _ ->
          if timeline_interval < 1 then
            failwith "--timeline-interval must be at least 1 ms";
          let tl =
            Vini_measure.Timeline.create ~engine
              ~interval:(Time.ms timeline_interval) ()
          in
          Vini_measure.Timeline.watch_engine tl engine;
          Option.iter
            (fun p -> Vini_measure.Timeline.watch_profile tl p)
            profile;
          Vini_measure.Timeline.watch_overlay tl iias;
          tl)
        timeline_out
    in
    let watchdog =
      Option.map
        (fun _ ->
          let wd =
            Vini_measure.Watchdog.create ~engine ~overlay:iias
              ~vtopo:spec.Vini_core.Experiment.vtopo ()
          in
          Vini_measure.Watchdog.start wd;
          wd)
        report_out
    in
    Vini_core.Vini.run ~until:(Time.sec 0) vini;
    let src, dst =
      match watch with
      | Some s -> (
          match String.split_on_char ',' s with
          | [ a; b ] ->
              let vtopo = spec.Vini_core.Experiment.vtopo in
              let id n =
                match Graph.id_of_name_opt vtopo n with
                | Some i -> i
                | None ->
                    failwith
                      (Printf.sprintf "--watch: topology %S has no node %S"
                         (Graph.label vtopo) n)
              in
              (id a, id b)
          | _ -> failwith "--watch expects NAME,NAME")
      | None -> (0, Graph.node_count spec.Vini_core.Experiment.vtopo - 1)
    in
    let ping =
      Vini_measure.Ping.start
        ~stack:(Vini_overlay.Iias.tap (Vini_overlay.Iias.vnode iias src))
        ~dst:(Vini_overlay.Iias.tap_addr (Vini_overlay.Iias.vnode iias dst))
        ~count:(duration * 4)
        ~mode:(Vini_measure.Ping.Interval (Time.ms 250))
        ()
    in
    Option.iter
      (fun m ->
        Vini_measure.Timeline.counter m ~name:"ping.sent" (fun () ->
            float_of_int (Vini_measure.Ping.sent ping));
        Vini_measure.Timeline.counter m ~name:"ping.received" (fun () ->
            float_of_int (Vini_measure.Ping.received ping)))
      metrics;
    Vini_core.Vini.run ~until:(Time.sec (duration + 10)) vini;
    Report.series
      ~title:
        (Printf.sprintf "ping %s -> %s during the experiment"
           (Graph.name spec.Vini_core.Experiment.vtopo src)
           (Graph.name spec.Vini_core.Experiment.vtopo dst))
      ~x_label:"s" ~y_label:"ms"
      (Vini_measure.Ping.series ping);
    Printf.printf "replies %d/%d (%.1f%% lost)\n"
      (Vini_measure.Ping.received ping)
      (Vini_measure.Ping.sent ping)
      (Vini_measure.Ping.loss_pct ping);
    Option.iter
      (fun path ->
        let r = Option.get recorder in
        Vini_sim.Span.uninstall ();
        (* With [--timeline-out] alongside, the spans document also
           carries the profiler's element attribution and one Perfetto
           counter track per timeline series. *)
        Vini_measure.Export.write ~path
          (Vini_measure.Export.spans_document ?profile ?timeline r);
        Printf.printf "spans written to %s (%d records, %d overwritten)\n"
          path (Vini_sim.Span.length r) (Vini_sim.Span.overwritten r))
      spans_out;
    Option.iter
      (fun t ->
        Vini_sim.Trace.uninstall ();
        Printf.printf "trace: %d events recorded, %d overwritten\n"
          (Vini_sim.Trace.length t) (Vini_sim.Trace.overwritten t))
      tracer;
    Option.iter
      (fun path ->
        let m = Option.get metrics in
        Vini_measure.Timeline.stop m;
        Vini_measure.Export.write ~path
          (Vini_measure.Export.document ?trace:tracer m);
        Printf.printf "metrics written to %s\n" path)
      metrics_out;
    Option.iter
      (fun path ->
        let tl = Option.get timeline in
        Vini_measure.Timeline.stop tl;
        Vini_sim.Profile.uninstall ();
        let module E = Vini_measure.Export in
        E.write ~path
          (Vini_measure.Timeline.document
             ~extra:
               [
                 ("experiment", E.Str spec.Vini_core.Experiment.exp_name);
                 ("substrate", E.Str phys_name);
                 ("seed", E.Num (float_of_int seed));
               ]
             tl);
        Printf.printf "timeline written to %s (%d snapshots)\n" path
          (Vini_measure.Timeline.nsamples tl))
      timeline_out;
    Option.iter
      (fun path ->
        let module E = Vini_measure.Export in
        let wd = Option.get watchdog in
        Vini_measure.Watchdog.stop wd;
        let stats =
          List.init
            (Vini_overlay.Iias.vnode_count iias)
            (fun v ->
              let vn = Vini_overlay.Iias.vnode iias v in
              let s = Vini_overlay.Iias.stats vn in
              E.Obj
                [
                  ("name", E.Str (Vini_overlay.Iias.vname vn));
                  ( "alive",
                    E.Bool (Vini_overlay.Iias.vnode_alive vn) );
                  ("forwarded", E.Num (float_of_int s.Vini_overlay.Iias.forwarded));
                  ("delivered", E.Num (float_of_int s.Vini_overlay.Iias.delivered));
                  ("no_route", E.Num (float_of_int s.Vini_overlay.Iias.no_route));
                  ( "tunnel_drops",
                    E.Num (float_of_int s.Vini_overlay.Iias.tunnel_drops) );
                  ( "corrupt_drops",
                    E.Num (float_of_int s.Vini_overlay.Iias.corrupt_drops) );
                ])
        in
        let restarts =
          match Vini_overlay.Iias.supervisor iias with
          | None -> []
          | Some sup ->
              [
                ( "restarts",
                  E.Obj
                    (List.map
                       (fun name ->
                         ( name,
                           E.Num
                             (float_of_int
                                (Vini_phys.Supervisor.restarts sup ~name)) ))
                       (Vini_phys.Supervisor.children sup)) );
                ( "given_up",
                  E.Arr
                    (List.map
                       (fun n -> E.Str n)
                       (Vini_phys.Supervisor.given_up sup)) );
              ]
        in
        let doc =
          E.Obj
            ([
               ("format", E.Str "vini.report/1");
               ("experiment", E.Str spec.Vini_core.Experiment.exp_name);
               ("substrate", E.Str phys_name);
               ("seed", E.Num (float_of_int seed));
               ("duration_s", E.Num (float_of_int duration));
               ( "ping",
                 E.Obj
                   [
                     ("sent", E.Num (float_of_int (Vini_measure.Ping.sent ping)));
                     ( "received",
                       E.Num (float_of_int (Vini_measure.Ping.received ping)) );
                     ("loss_pct", E.Num (Vini_measure.Ping.loss_pct ping));
                   ] );
               ("watchdog", Vini_measure.Watchdog.json wd);
               ("vnodes", E.Arr stats);
             ]
            @ restarts)
        in
        E.write ~path doc;
        Printf.printf "report written to %s\n" path)
      report_out;
    Option.iter
      (fun path ->
        let module E = Vini_measure.Export in
        let module V = Vini_core.Vini in
        match (V.mapping inst, V.placement_request inst) with
        | Some m, Some req ->
            let slices =
              [
                {
                  E.es_name = spec.Vini_core.Experiment.exp_name;
                  es_vtopo = spec.Vini_core.Experiment.vtopo;
                  es_request = req;
                  es_result = Ok m;
                };
              ]
            in
            let migrations =
              List.map Vini_repro.Migration.export_of_migration
                (V.migrations inst)
            in
            E.write ~path
              (E.embed_document ~migrations ~substrate:(V.substrate vini)
                 ~slices ());
            Printf.printf "embedding written to %s (%d migration(s))\n" path
              (List.length migrations)
        | _ ->
            Printf.printf
              "embed-out: pinned placement, no embedding document\n")
      embed_out;
    Option.iter
      (fun path ->
        let module E = Vini_measure.Export in
        match Vini_core.Spec_lang.workload parsed with
        | Some workload ->
            E.write ~path
              (E.scenario_document ~name:spec.Vini_core.Experiment.exp_name
                 ?fluid:(Vini_core.Vini.fluid inst)
                 ~under:(Vini_core.Vini.underlay vini) ~substrate:phys
                 ~workload ());
            Printf.printf "scenario written to %s\n" path
        | None ->
            Printf.printf
              "scenario-out: spec declares no workload, nothing to write\n")
      scenario_out
  in
  let spec_arg =
    Arg.(value & opt (some file) None
         & info [ "spec" ] ~docv:"FILE"
             ~doc:"Experiment specification (default: a built-in example).")
  in
  let phys_arg =
    Arg.(value & opt string "mesh"
         & info [ "phys" ] ~docv:"NAME"
             ~doc:"Physical substrate: mesh, abilene, nlr, deter, planetlab3, \
                   or a vini.topo/1 $(b,.json) file from $(b,vini gen).  A \
                   $(b,topology) line in the spec overrides this flag.")
  in
  let watch_arg =
    Arg.(value & opt (some string) None
         & info [ "watch" ] ~docv:"A,B"
             ~doc:"Virtual node pair to ping during the run (default: first \
                   and last).")
  in
  let duration_arg =
    Arg.(value & opt int 60 & info [ "duration" ] ~docv:"SEC"
           ~doc:"Observation window after convergence.")
  in
  let report_out_arg =
    Arg.(value & opt (some string) None
         & info [ "report-out" ] ~docv:"FILE"
             ~doc:"Run an invariant watchdog during the experiment and write \
                   a vini.report/1 JSON document (ping stats, watchdog \
                   violations, per-vnode counters, supervised restarts) to \
                   $(docv).")
  in
  let embed_out_arg =
    Arg.(value & opt (some string) None
         & info [ "embed-out" ] ~docv:"FILE"
             ~doc:"Write the run's vini.embed/1 embedding document (solved \
                   mapping, substrate stress, acceptance counters, and any \
                   crash-driven migrations with their downtime) to $(docv).  \
                   Inspect or produce standalone documents with $(b,vini \
                   embed).")
  in
  let scenario_out_arg =
    Arg.(value & opt (some string) None
         & info [ "scenario-out" ] ~docv:"FILE"
             ~doc:"Write the run's vini.scenario/1 document (substrate \
                   summary, workload parameters, fluid-model conservation \
                   totals and per-link load, packet-side counters) to \
                   $(docv).  Requires a $(b,workload) line in the spec.")
  in
  let doc =
    "Deploy a textual experiment specification (§6.2) and watch it run."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ spec_arg $ phys_arg $ watch_arg $ seed_arg $ duration_arg
          $ trace_arg $ metrics_out_arg $ report_out_arg $ spans_out_arg
          $ timeline_out_arg $ timeline_interval_arg $ embed_out_arg
          $ scenario_out_arg)

(* --- spans ----------------------------------------------------------------------- *)

let spans_cmd =
  let module E = Vini_measure.Export in
  let str k j = Option.bind (E.member k j) E.to_str in
  let num k j = Option.bind (E.member k j) E.to_float in
  let arr k j = Option.value ~default:[] (Option.bind (E.member k j) E.to_list) in
  let s_of k j = Option.value ~default:"?" (str k j) in
  let n_of k j = Option.value ~default:0.0 (num k j) in
  let run file check =
    let text = In_channel.with_open_bin file In_channel.input_all in
    let doc =
      match E.of_string text with
      | Ok doc -> doc
      | Error e ->
          Printf.eprintf "%s: JSON parse error: %s\n" file e;
          exit 1
    in
    Report.table
      ~title:"Latency attribution (all flows)"
      ~header:[ "category"; "hops"; "total s"; "mean s"; "p95 s" ]
      ~rows:
        (List.map
           (fun row ->
             [
               s_of "attribution" row;
               Printf.sprintf "%.0f" (n_of "hops" row);
               Printf.sprintf "%.6f" (n_of "total_s" row);
               Printf.sprintf "%.6f" (n_of "mean_s" row);
               Printf.sprintf "%.6f" (n_of "p95_s" row);
             ])
           (arr "breakdown" doc));
    let drops = arr "drops" doc in
    if drops <> [] then begin
      (* Drop forensics, grouped by site and reason. *)
      let groups = Hashtbl.create 8 in
      List.iter
        (fun d ->
          let k = (s_of "site" d, s_of "reason" d) in
          Hashtbl.replace groups k
            (1 + Option.value ~default:0 (Hashtbl.find_opt groups k)))
        drops;
      Report.table ~title:"Drop forensics"
        ~header:[ "site"; "reason"; "count" ]
        ~rows:
          (Hashtbl.fold
             (fun (site, reason) c acc ->
               [ site; reason; string_of_int c ] :: acc)
             groups []
          |> List.sort compare);
      match drops with
      | d :: _ ->
          Printf.printf "\nexemplar drop: pkt %.0f died at %s (%s); path:\n"
            (n_of "pkt" d) (s_of "site" d) (s_of "reason" d);
          List.iter
            (fun step ->
              match s_of "kind" step with
              | "origin" ->
                  Printf.printf "  %12.6f  origin  %s\n" (n_of "t_s" step)
                    (s_of "component" step)
              | _ ->
                  Printf.printf "  %12.6f  %-18s %s\n" (n_of "t0_s" step)
                    (s_of "attribution" step) (s_of "component" step))
            (arr "path" d)
      | [] -> ()
    end;
    Printf.printf "\nworst paths by attributed latency:\n";
    List.iter
      (fun tr ->
        Printf.printf "  tree %.0f from %s: %.6f s%s\n" (n_of "orig" tr)
          (s_of "origin" tr) (n_of "total_s" tr)
          (match E.member "dropped" tr with
          | Some (E.Bool true) -> "  [dropped]"
          | _ -> "");
        List.iter
          (fun h ->
            Printf.printf "    %12.6f  %-18s %-30s %.6f s\n" (n_of "t0_s" h)
              (s_of "attribution" h) (s_of "component" h)
              (n_of "duration_s" h))
          (arr "hops" tr))
      (arr "worst_paths" doc);
    if check then begin
      let failures = ref [] in
      let fail fmt =
        Printf.ksprintf (fun s -> failures := s :: !failures) fmt
      in
      (match str "schema" doc with
      | Some s when s = E.spans_schema_version -> ()
      | Some s -> fail "schema: expected %s, got %s" E.spans_schema_version s
      | None -> fail "schema: missing");
      let events = arr "traceEvents" doc in
      if events = [] then fail "traceEvents: empty";
      List.iteri
        (fun i ev ->
          if str "name" ev = None || num "ts" ev = None then
            fail "traceEvents[%d]: missing name/ts" i;
          match str "ph" ev with
          | Some ("X" | "i") when E.member "tid" ev = None ->
              fail "traceEvents[%d]: no tid" i
          | Some ("X" | "i" | "C") -> ()
          | Some ph -> fail "traceEvents[%d]: unknown ph %S" i ph
          | None -> fail "traceEvents[%d]: missing ph" i)
        events;
      if arr "breakdown" doc = [] then fail "breakdown: empty";
      List.iteri
        (fun i d ->
          if arr "path" d = [] then
            fail "drops[%d]: empty path (reason %s at %s)" i (s_of "reason" d)
              (s_of "site" d))
        drops;
      match List.rev !failures with
      | [] ->
          Printf.printf
            "\ncheck: OK (%d trace events, %d drops, all with paths)\n"
            (List.length events) (List.length drops)
      | fs ->
          List.iter (fun s -> Printf.eprintf "check: FAIL: %s\n" s) fs;
          exit 1
    end
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"A vini.spans/1 document.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate the document: schema tag, well-formed \
                   traceEvents (name, ts, a phase of X, i or C, and a tid \
                   on every X and i), a non-empty breakdown, and a \
                   non-empty path on every drop.  Non-zero exit on \
                   failure.")
  in
  let doc =
    "Inspect a vini.spans/1 flight-recorder export: latency-attribution \
     breakdown, drop forensics, worst-path exemplars."
  in
  Cmd.v (Cmd.info "spans" ~doc) Term.(const run $ file_arg $ check_arg)

(* --- top ------------------------------------------------------------------------- *)

let top_cmd =
  let module E = Vini_measure.Export in
  let run file check =
    let text = In_channel.with_open_bin file In_channel.input_all in
    let doc =
      match E.of_string text with
      | Ok doc -> doc
      | Error e ->
          Printf.eprintf "%s: JSON parse error: %s\n" file e;
          exit 1
    in
    let str k = Option.bind (E.member k doc) E.to_str in
    let num k = Option.bind (E.member k doc) E.to_float in
    let arr k =
      Option.value ~default:[] (Option.bind (E.member k doc) E.to_list)
    in
    let series =
      List.filter_map E.to_str (arr "series")
    in
    let samples = arr "samples" in
    let row j =
      match Option.map (List.filter_map E.to_float) (E.to_list j) with
      | Some (t :: vs) -> Some (t, vs)
      | _ -> None
    in
    let interval_s = Option.value ~default:0.0 (num "interval_s") in
    (match List.rev (List.filter_map row samples) with
    | [] -> Printf.printf "%s: empty timeline (no snapshots)\n" file
    | (t_last, vs_last) :: rest ->
        let prev = match rest with p :: _ -> Some p | [] -> None in
        let title =
          Printf.sprintf "timeline @ %.3f s (%d snapshots, interval %g s)"
            t_last (List.length samples) interval_s
        in
        (* Last snapshot per series, plus the per-second rate over the
           final interval — what a live `top` would show. *)
        let rows =
          List.mapi
            (fun i name ->
              let v = List.nth_opt vs_last i in
              let rate =
                match (v, prev) with
                | Some v, Some (t_prev, vs_prev) when t_last > t_prev -> (
                    match List.nth_opt vs_prev i with
                    | Some p -> Some ((v -. p) /. (t_last -. t_prev))
                    | None -> None)
                | _ -> None
              in
              [
                name;
                (match v with Some v -> Printf.sprintf "%g" v | None -> "?");
                (match rate with
                | Some r -> Printf.sprintf "%g" r
                | None -> "-");
              ])
            series
        in
        Report.table ~title ~header:[ "series"; "value"; "rate/s" ] ~rows);
    if check then begin
      let failures = ref [] in
      let fail fmt =
        Printf.ksprintf (fun s -> failures := s :: !failures) fmt
      in
      (match str "schema" with
      | Some s when s = Vini_measure.Timeline.schema_version -> ()
      | Some s ->
          fail "schema: expected %s, got %s"
            Vini_measure.Timeline.schema_version s
      | None -> fail "schema: missing");
      (match num "interval_s" with
      | Some s when s > 0.0 -> ()
      | Some s -> fail "interval_s: not positive (%g)" s
      | None -> fail "interval_s: missing");
      let width = List.length series in
      if List.length (arr "series") <> width then
        fail "series: non-string entries";
      if width = 0 then fail "series: empty";
      if samples = [] then fail "samples: empty";
      let last_t = ref neg_infinity in
      List.iteri
        (fun i s ->
          match row s with
          | None -> fail "samples[%d]: not an array of numbers" i
          | Some (t, vs) ->
              if List.length vs <> width then
                fail "samples[%d]: %d values for %d series" i
                  (List.length vs) width;
              if t <= !last_t then
                fail "samples[%d]: time %g not increasing" i t;
              last_t := t)
        samples;
      match List.rev !failures with
      | [] ->
          Printf.printf "\ncheck: OK (%d series, %d snapshots)\n" width
            (List.length samples)
      | fs ->
          List.iter (fun s -> Printf.eprintf "check: FAIL: %s\n" s) fs;
          exit 1
    end
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"A vini.timeline/1 document.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate the document: schema tag, positive interval, \
                   at least one series and one snapshot, rectangular \
                   samples, strictly increasing snapshot times.  Non-zero \
                   exit on failure.")
  in
  let doc =
    "Inspect a vini.timeline/1 self-observability export: the last \
     snapshot of every series with its per-second rate over the final \
     interval."
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ file_arg $ check_arg)

(* --- embed ----------------------------------------------------------------------- *)

let embed_cmd =
  let module Embed = Vini_embed.Embed in
  let module Request = Vini_embed.Request in
  let module Substrate = Vini_embed.Substrate in
  let module E = Vini_measure.Export in
  let module Graph = Vini_topo.Graph in
  let run phys_name vnodes cpu bw_mbps solver seed slices check out =
    let phys = physical_topology ~seed phys_name in
    let algo =
      match Request.algo_of_string solver with
      | Some a -> a
      | None -> failwith ("unknown solver " ^ solver ^ " (greedy or online)")
    in
    let vtopo = Migration.virtual_ring vnodes in
    let sub = Substrate.of_graph phys in
    let bw = bw_mbps *. 1e6 in
    Printf.printf
      "embedding %d slice(s) of a %d-node virtual ring (cpu %.2f cores/vnode, \
       bw %.1f Mb/s/vlink, %s solver) on %s (%d nodes)\n\n"
      slices vnodes cpu bw_mbps solver phys_name (Graph.node_count phys);
    let checked = ref 0 in
    let results =
      List.init slices (fun i ->
          let name =
            if slices = 1 then "slice" else Printf.sprintf "slice%d" i
          in
          let req =
            Request.make ~name ~cpu:(fun _ -> cpu) ~bw:(fun _ -> bw) ~algo
              ~seed:(seed + i) ()
          in
          let res =
            match Embed.solve sub ~vtopo req with
            | Ok m ->
                if check then begin
                  (match Embed.check sub ~vtopo req m with
                  | Ok () -> incr checked
                  | Error e ->
                      Printf.eprintf "check: FAIL (%s): %s\n" name e;
                      exit 1);
                end;
                Embed.commit sub ~vtopo req m;
                Substrate.note_admitted sub;
                Ok m
            | Error r ->
                Substrate.note_rejected sub;
                Error r
          in
          { E.es_name = name; es_vtopo = vtopo; es_request = req;
            es_result = res })
    in
    List.iter
      (fun s ->
        match s.E.es_result with
        | Ok m ->
            Report.table
              ~title:
                (Printf.sprintf "%s: mapped (stretch %.3f)" s.E.es_name
                   (Embed.stretch sub m))
              ~header:[ "vnode"; "pnode"; "cpu" ]
              ~rows:
                (Array.to_list
                   (Array.mapi
                      (fun v p ->
                        [ Graph.name vtopo v; Graph.name phys p; f cpu ])
                      m.Embed.nodes));
            if slices = 1 then
              List.iter
                (fun ((va, vb), path) ->
                  Printf.printf "  %s-%s via %s\n" (Graph.name vtopo va)
                    (Graph.name vtopo vb)
                    (String.concat " > " (List.map (Graph.name phys) path)))
                m.Embed.vpaths
        | Error r ->
            Printf.printf "%s: REJECTED [%s] %s\n" s.E.es_name
              (Embed.rejection_kind r)
              (Embed.rejection_to_string r))
      results;
    print_newline ();
    Report.table ~title:"per-pnode stress (reference cores)"
      ~header:[ "pnode"; "capacity"; "used"; "residual" ]
      ~rows:
        (List.init (Graph.node_count phys) (fun p ->
             [
               Graph.name phys p;
               f (Substrate.node_capacity sub p);
               f (Substrate.node_used sub p);
               f (Substrate.node_residual sub p);
             ]));
    Printf.printf "admitted %d, rejected %d (acceptance %.2f)\n"
      (Substrate.admitted sub) (Substrate.rejected sub)
      (Substrate.acceptance_rate sub);
    if check && !checked > 0 then
      Printf.printf "check: OK (%d mapping(s) validated)\n" !checked;
    Option.iter
      (fun path ->
        E.write ~path (E.embed_document ~substrate:sub ~slices:results ());
        Printf.printf "embedding written to %s\n" path)
      out;
    if Substrate.admitted sub = 0 && Substrate.rejected sub > 0 then exit 3
  in
  let phys_arg =
    Arg.(value & opt string "abilene"
         & info [ "phys" ] ~docv:"NAME"
             ~doc:"Physical substrate: abilene, mesh, nlr, deter, planetlab3.")
  in
  let nodes_arg =
    Arg.(value & opt int 6 & info [ "nodes" ] ~docv:"N"
           ~doc:"Virtual ring size (the slice topology to place).")
  in
  let cpu_arg =
    Arg.(value & opt float 0.25 & info [ "cpu" ] ~docv:"CORES"
           ~doc:"Per-virtual-node CPU demand, in reference cores.")
  in
  let bw_arg =
    Arg.(value & opt float 0.0 & info [ "bw" ] ~docv:"MBPS"
           ~doc:"Per-virtual-link bandwidth demand, in Mb/s.")
  in
  let solver_arg =
    Arg.(value & opt string "greedy"
         & info [ "solver" ] ~docv:"ALGO"
             ~doc:"Placement solver: greedy (capacity-aware best-fit) or \
                   online (deterministic congestion-priced).")
  in
  let slices_arg =
    Arg.(value & opt int 1 & info [ "slices" ] ~docv:"N"
           ~doc:"Admit an arrival sequence of N identical slices against the \
                 shared substrate and report the acceptance rate.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate every accepted mapping against the substrate \
                   (injectivity, liveness, path adjacency, residual fit) \
                   before committing it; non-zero exit on failure.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the vini.embed/1 JSON document (mappings or \
                   structured rejections, substrate stress, residual \
                   histogram, acceptance) to $(docv).")
  in
  let doc =
    "Place virtual topologies on a physical substrate with the \
     capacity-aware embedding engine: solved mappings, per-pnode stress, \
     structured rejection reasons.  Exits 3 when nothing could be admitted."
  in
  Cmd.v (Cmd.info "embed" ~doc)
    Term.(const run $ phys_arg $ nodes_arg $ cpu_arg $ bw_arg $ solver_arg
          $ seed_arg $ slices_arg $ check_arg $ out_arg)

(* --- migrate --------------------------------------------------------------------- *)

let migrate_cmd =
  let module V = Vini_core.Vini in
  let module E = Vini_measure.Export in
  let module Time = Vini_sim.Time in
  let run seed vnodes at duration target crash compare_ check out =
    let kind_str (m : V.migration) =
      match m.V.m_kind with V.Planned -> "planned" | V.Crash_driven -> "crash"
    in
    let print_result label (r : Migration.result) =
      Report.table
        ~title:(Printf.sprintf "%s: migration records" label)
        ~header:
          [ "vnode"; "from"; "to"; "kind"; "down_s"; "loss"; "stretch<";
            "stretch>"; "balance<"; "balance>" ]
        ~rows:
          (List.map
             (fun (m : V.migration) ->
               [
                 string_of_int m.V.m_vnode;
                 string_of_int m.m_from;
                 string_of_int m.m_to;
                 kind_str m;
                 f (Time.to_sec_f (Time.sub m.m_restored_at m.m_down_at));
                 (match m.m_cutover_loss with
                 | Some n -> string_of_int n
                 | None -> "-");
                 f m.m_stretch_before;
                 f m.m_stretch_after;
                 f m.m_balance_before;
                 f m.m_balance_after;
               ])
             r.Migration.migrations);
      Printf.printf "%s: pings %d sent, %d received (%d lost)\n" label
        r.Migration.pings_sent r.Migration.pings_received
        (r.Migration.pings_sent - r.Migration.pings_received);
      List.iter
        (fun (v, reason) ->
          Printf.printf "%s: migration of vnode %d failed: %s\n" label v
            reason)
        r.Migration.migration_failures
    in
    let write_export (r : Migration.result) =
      Option.iter
        (fun path ->
          E.write ~path r.Migration.export;
          Printf.printf "embedding written to %s\n" path)
        out
    in
    let total_loss (r : Migration.result) =
      List.fold_left
        (fun acc (m : V.migration) ->
          acc + Option.value ~default:0 m.V.m_cutover_loss)
        0 r.Migration.migrations
    in
    let total_down (r : Migration.result) =
      List.fold_left
        (fun acc (m : V.migration) ->
          acc +. Time.to_sec_f (Time.sub m.V.m_restored_at m.V.m_down_at))
        0.0 r.Migration.migrations
    in
    if compare_ then begin
      let c = Migration.compare_modes ~seed ~vnodes ~at ~duration () in
      print_result "planned" c.Migration.planned;
      print_newline ();
      print_result "crash" c.Migration.crash;
      print_newline ();
      Report.table ~title:"planned vs crash-driven"
        ~header:[ "mode"; "downtime_s"; "cutover_loss"; "ping_loss" ]
        ~rows:
          [
            [ "planned"; f c.Migration.planned_downtime_s;
              string_of_int c.Migration.planned_cutover_loss;
              string_of_int c.Migration.planned_ping_loss ];
            [ "crash"; f c.Migration.crash_downtime_s; "-";
              string_of_int c.Migration.crash_ping_loss ];
          ];
      write_export c.Migration.planned;
      if
        check
        && (c.Migration.planned_cutover_loss > 0
           || c.Migration.planned_downtime_s > 0.0
           || c.Migration.planned.Migration.migrations = [])
      then begin
        Printf.eprintf "check: FAIL (planned migration not lossless)\n";
        exit 3
      end
    end
    else if crash then begin
      let r = Migration.run ~seed ~vnodes ~crash_at:at ~duration () in
      print_result "crash" r;
      write_export r;
      if check && (r.Migration.migrations = [] || total_down r <= 0.0) then begin
        Printf.eprintf
          "check: FAIL (crash-driven migration recorded no downtime)\n";
        exit 3
      end
    end
    else begin
      let r =
        Migration.run_planned ~seed ~vnodes ~migrate_at:at ~duration ?target
          ()
      in
      print_result "planned" r;
      write_export r;
      if
        check
        && (r.Migration.migrations = []
           || r.Migration.migration_failures <> []
           || total_loss r > 0 || total_down r > 0.0)
      then begin
        Printf.eprintf
          "check: FAIL (planned migration lost packets or failed)\n";
        exit 3
      end
    end
  in
  let vnodes_arg =
    Arg.(value & opt int 6 & info [ "vnodes" ] ~docv:"N"
           ~doc:"Virtual ring size placed on Abilene.")
  in
  let at_arg =
    Arg.(value & opt float 10.0
         & info [ "at" ] ~docv:"SEC"
             ~doc:"Seconds into the measurement window at which the move \
                   (or crash) happens.")
  in
  let duration_arg =
    Arg.(value & opt float 40.0 & info [ "duration" ] ~docv:"SEC"
           ~doc:"Measurement window, in simulated seconds.")
  in
  let target_arg =
    Arg.(value & opt (some int) None
         & info [ "target" ] ~docv:"PNODE"
             ~doc:"Explicit physical target for the planned move (default: \
                   first spare machine).")
  in
  let crash_flag =
    Arg.(value & flag
         & info [ "crash" ]
             ~doc:"Run the crash-driven scenario instead of the planned \
                   one.")
  in
  let compare_flag =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Run both scenarios on the same seed and print the \
                   planned-vs-crash quality summary.")
  in
  let check_flag =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit 3 unless the planned migration completed with zero \
                   downtime and zero cutover packet loss (and, with \
                   $(b,--crash), the crash-driven one recorded real \
                   downtime).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the run's vini.embed/1 JSON document (mapping, \
                   substrate stress, migration records with cutover loss \
                   and stretch/balance deltas) to $(docv).")
  in
  let doc =
    "Live-migrate a virtual node of a running slice, make-before-break: \
     pre-cloned process, double-provisioned resources, atomic \
     flip, drain, retire.  Prints migration-quality records (downtime, \
     cutover loss, path-stretch and balance deltas); $(b,--compare) runs \
     the planned and crash-driven scenarios side by side."
  in
  Cmd.v (Cmd.info "migrate" ~doc)
    Term.(const run $ seed_arg $ vnodes_arg $ at_arg $ duration_arg
          $ target_arg $ crash_flag $ compare_flag $ check_flag
          $ out_arg)

(* --- mttr ------------------------------------------------------------------------ *)

let mttr_cmd =
  let run seed backoffs =
    let rows = Mttr.sweep ~seed ~backoffs () in
    Printf.printf
      "MTTR on the Abilene mirror: crash the Denver machine at t=10s, \
       reboot at t=25s\n(control row: cut the Denver--Kansas-City virtual \
       link instead)\n\n";
    List.iter print_endline (Mttr.row_strings rows)
  in
  let backoffs_arg =
    Arg.(value & opt (list float) [ 0.5; 2.0; 8.0 ]
         & info [ "backoffs" ] ~docv:"S,S,..."
             ~doc:"Supervisor base-backoff values to sweep (seconds).")
  in
  let doc =
    "MTTR and packet loss during OSPF reconvergence under node vs link \
     failure, swept over supervisor backoff settings."
  in
  Cmd.v (Cmd.info "mttr" ~doc) Term.(const run $ seed_arg $ backoffs_arg)

(* --- upcalls --------------------------------------------------------------------- *)

let upcalls_cmd =
  let run seed =
    let u1, u2 = Abilene.upcall_demo ~seed:(seed + 8200) () in
    Report.table
      ~title:"Section 6.1: physical-failure upcalls to concurrent experiments"
      ~header:[ "experiment"; "upcalls (fail+restore)" ]
      ~rows:[ [ "exp1"; string_of_int u1 ]; [ "exp2"; string_of_int u2 ] ]
  in
  let doc = "Demonstrate physical-failure upcalls to concurrent experiments." in
  Cmd.v (Cmd.info "upcalls" ~doc) Term.(const run $ seed_arg)

(* --- gen ------------------------------------------------------------------------- *)

let gen_cmd =
  let module Graph = Vini_topo.Graph in
  let module Generate = Vini_scenario.Generate in
  let summarize g =
    let delays =
      List.map
        (fun l -> Vini_sim.Time.to_ms_f l.Graph.delay)
        (Graph.links g)
    in
    let mean = List.fold_left ( +. ) 0.0 delays in
    let n = float_of_int (max 1 (List.length delays)) in
    Printf.printf "%s: %d nodes, %d links, mean link delay %.2f ms\n"
      (Graph.label g) (Graph.node_count g) (Graph.link_count g) (mean /. n)
  in
  let run kind size seed alpha beta degree bw out check =
    match check with
    | Some path -> (
        match Generate.load_file path with
        | Ok g ->
            Printf.printf "%s: valid %s document; " path
              Generate.schema_version;
            summarize g
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            exit 1)
    | None ->
        let kind =
          match kind with
          | Some k -> k
          | None ->
              failwith
                "KIND required (waxman | fat-tree | backbone), or --check FILE"
        in
        let size =
          match size with
          | Some n -> n
          | None -> failwith "SIZE required (node count / fat-tree arity)"
        in
        let gkind =
          match
            Generate.parse_kind kind ~n:size ?alpha ?beta ?degree
              ?bandwidth_bps:bw ()
          with
          | Ok k -> k
          | Error e -> failwith e
        in
        let spec = { Generate.kind = gkind; seed } in
        let text = Generate.document spec in
        (match out with
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc text);
            summarize (Generate.generate spec);
            Printf.printf "written to %s\n" path
        | None -> print_string text)
  in
  let kind_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"KIND"
             ~doc:"Generator family: waxman, fat-tree, or backbone.")
  in
  let size_arg =
    Arg.(value & pos 1 (some int) None
         & info [] ~docv:"SIZE"
             ~doc:"Node count (waxman, backbone) or arity (fat-tree).")
  in
  let alpha_arg =
    Arg.(value & opt (some float) None
         & info [ "alpha" ] ~docv:"A" ~doc:"Waxman edge-probability scale.")
  in
  let beta_arg =
    Arg.(value & opt (some float) None
         & info [ "beta" ] ~docv:"B" ~doc:"Waxman distance-decay parameter.")
  in
  let degree_arg =
    Arg.(value & opt (some int) None
         & info [ "degree" ] ~docv:"D"
             ~doc:"Backbone nearest-neighbour links per PoP.")
  in
  let bw_arg =
    Arg.(value & opt (some float) None
         & info [ "bw" ] ~docv:"BPS" ~doc:"Link bandwidth in bits per second.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the vini.topo/1 document to $(docv) instead of \
                   stdout.")
  in
  let check_arg =
    Arg.(value & opt (some file) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:"Validate $(docv) as a vini.topo/1 document instead of \
                   generating (exit 1 on schema or structural errors).")
  in
  let doc =
    "Generate a seeded physical substrate (Waxman, fat-tree, or synthetic \
     backbone) as a vini.topo/1 JSON document.  Byte-identical per (kind, \
     parameters, seed); always connected.  Feed the file to $(b,vini run \
     --phys FILE.json) or a spec's $(b,topology load) line."
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ kind_arg $ size_arg $ seed_arg $ alpha_arg $ beta_arg
          $ degree_arg $ bw_arg $ out_arg $ check_arg)

let main =
  let doc = "VINI: a virtual network infrastructure (SIGCOMM 2006), reproduced" in
  Cmd.group
    (Cmd.info "vini" ~version:"1.0.0" ~doc)
    [ deter_cmd; planetlab_cmd; abilene_cmd; topo_cmd; mirror_cmd; run_cmd;
      gen_cmd; ablate_cmd; spans_cmd; top_cmd; embed_cmd; migrate_cmd;
      mttr_cmd; upcalls_cmd ]

let () = exit (Cmd.eval main)
