(* Tests for the runtime self-profiler ([Vini_sim.Profile]), the
   sim-clock timeline sampler ([Vini_measure.Timeline]) and the
   data-plane watermarks they export. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Profile = Vini_sim.Profile
module Timeline = Vini_measure.Timeline
module Export = Vini_measure.Export
module Packet = Vini_net.Packet
module Addr = Vini_net.Addr
module Pool = Vini_net.Pool
module Ring = Vini_click.Ring
module Batch = Vini_click.Batch
module Element = Vini_click.Element

let check = Alcotest.check

let udp ?(size = 500) () =
  Packet.udp
    ~src:(Addr.of_string "10.0.0.1")
    ~dst:(Addr.of_string "10.0.0.2")
    ~sport:1 ~dport:2 (Packet.Bytes_ size)

(* --- element attribution ------------------------------------------------- *)

(* A two-element chain under an installed profile: leaf paths carry the
   service cost, packet counts land per class, and totals roll up to
   ancestors.  After uninstall the gate is down and nothing more is
   recorded. *)
let test_element_attribution () =
  let p = Profile.create () in
  let sink = Element.make "prof.sink" (fun _ -> ()) in
  let route = Element.make "prof.route" (fun pkt -> Element.push sink pkt) in
  Profile.install p;
  Profile.set_service_cost 0.001;
  for _ = 1 to 10 do
    Element.push route (udp ())
  done;
  Profile.clear_service_cost ();
  Profile.uninstall ();
  check Alcotest.bool "gate down after uninstall" false !Profile.gate;
  Element.push route (udp ());
  (* 10 packets offered to each of the two classes. *)
  check Alcotest.int "packets counted once per class" 20
    (Profile.element_packets_total p);
  check (Alcotest.float 1e-9) "all cost attributed" 0.01
    (Profile.attributed_cost_s p);
  let rows = Profile.element_rows p in
  let row name =
    List.find (fun r -> r.Profile.er_class = name) rows
  in
  let rt = row "prof.route" and sk = row "prof.sink" in
  (* The sink is the leaf: all self time there; the route's total
     includes the path it sits on, but its self time is zero. *)
  check (Alcotest.float 1e-9) "sink self" 0.01 sk.Profile.er_self_s;
  check (Alcotest.float 1e-9) "route self" 0.0 rt.Profile.er_self_s;
  check (Alcotest.float 1e-9) "route total" 0.01 rt.Profile.er_total_s;
  match Profile.collapsed p with
  | [ (path, cost_s, count) ] ->
      check Alcotest.string "collapsed path" "prof.route;prof.sink" path;
      check (Alcotest.float 1e-9) "collapsed cost" 0.01 cost_s;
      check Alcotest.int "collapsed count" 10 count
  | other ->
      Alcotest.failf "expected one collapsed path, got %d"
        (List.length other)

(* --- watermark monotonicity ---------------------------------------------- *)

(* The pool's low watermark only ever falls; the ring's depth watermark
   only ever rises.  Checked stepwise under a deterministic ragged
   workload. *)
let test_watermark_monotonicity () =
  let pool = Pool.create ~capacity:32 ~mint:(fun _ -> udp ()) () in
  let ring = Ring.create ~capacity:16 in
  let rng = Vini_std.Rng.create 42 in
  let low = ref (Pool.low_watermark pool) in
  let deep = ref (Ring.depth_hwm ring) in
  check Alcotest.int "low watermark starts at capacity" 32 !low;
  check Alcotest.int "depth watermark starts at zero" 0 !deep;
  for _ = 1 to 500 do
    let takes = Vini_std.Rng.int rng 6 in
    for _ = 1 to takes do
      match Pool.take_opt pool with
      | Some p -> if not (Ring.push ring p) then Pool.recycle pool p
      | None -> ()
    done;
    let pops = Vini_std.Rng.int rng 6 in
    for _ = 1 to pops do
      match Ring.pop ring with
      | Some p -> Pool.recycle pool p
      | None -> ()
    done;
    let low' = Pool.low_watermark pool in
    let deep' = Ring.depth_hwm ring in
    check Alcotest.bool "low watermark non-increasing" true (low' <= !low);
    check Alcotest.bool "depth watermark non-decreasing" true
      (deep' >= !deep);
    check Alcotest.bool "low watermark within range" true
      (low' >= 0 && low' <= Pool.capacity pool);
    check Alcotest.bool "depth watermark within range" true
      (deep' >= Ring.length ring && deep' <= Ring.capacity ring);
    low := low';
    deep := deep'
  done;
  check Alcotest.bool "workload actually moved the watermarks" true
    (!low < 32 && !deep > 0)

(* --- timeline: schema round-trip with hostile series names --------------- *)

let test_timeline_roundtrip_escaping () =
  let engine = Engine.create ~seed:3 () in
  let tl = Timeline.create ~engine ~interval:(Time.ms 100) () in
  let v = ref 0.0 in
  let names =
    [
      "plain.series";
      "with \"quotes\"";
      "new\nline";
      "tab\there";
      "back\\slash";
      "ctrl\x01char";
    ]
  in
  List.iter
    (fun name -> Timeline.gauge tl ~name (fun () -> !v))
    names;
  (* Duplicate registration is rejected. *)
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Timeline: duplicate series plain.series")
    (fun () -> Timeline.gauge tl ~name:"plain.series" (fun () -> 0.0));
  ignore
    (Engine.at engine (Time.ms 150) (fun () -> v := 1.5));
  Engine.run ~until:(Time.ms 450) engine;
  check Alcotest.int "four snapshots" 4 (Timeline.nsamples tl);
  let doc = Timeline.document tl in
  let text = Export.to_string doc in
  (match Export.of_string text with
  | Ok parsed ->
      check Alcotest.bool "round-trips structurally" true (parsed = doc);
      (match Option.bind (Export.member "series" parsed) Export.to_list with
      | Some series ->
          check
            (Alcotest.list Alcotest.string)
            "series names survive escaping" names
            (List.filter_map Export.to_str series)
      | None -> Alcotest.fail "series member missing");
      (match Option.bind (Export.member "samples" parsed) Export.to_list with
      | Some rows ->
          check Alcotest.int "rows" 4 (List.length rows);
          List.iter
            (fun row ->
              match Export.to_list row with
              | Some cells ->
                  check Alcotest.int "row width" 7 (List.length cells)
              | None -> Alcotest.fail "row is not an array")
            rows
      | None -> Alcotest.fail "samples member missing")
  | Error e -> Alcotest.failf "parse error: %s" e);
  (* Values sampled on the sim clock: the mutation at 150 ms lands in
     snapshot 2 (t = 200 ms) and later, not in snapshot 1. *)
  match Timeline.series tl with
  | (_, _, (t1, v1) :: (_, v2) :: _) :: _ ->
      check (Alcotest.float 1e-9) "first snapshot at 100 ms" 0.1 t1;
      check (Alcotest.float 1e-9) "before mutation" 0.0 v1;
      check (Alcotest.float 1e-9) "after mutation" 1.5 v2
  | _ -> Alcotest.fail "expected snapshots"

(* --- timeline: byte identity per seed ------------------------------------ *)

(* The document is a function of the seed alone: a rerun with the same
   seed reproduces it byte for byte, and the next seed changes it (so the
   comparison could fail). *)
let test_timeline_seed_byte_identity () =
  let run seed =
    Vini_repro.Deter.timeline_run ~duration_s:1 ~seed ~interval_ms:250 ()
  in
  let d1, mbps1 = run 7001 in
  let d2, mbps2 = run 7001 in
  let d3, _ = run 7002 in
  let doc1 = Export.to_string d1 in
  check (Alcotest.float 1e-9) "same throughput" mbps1 mbps2;
  check Alcotest.string "byte-identical document" doc1 (Export.to_string d2);
  check Alcotest.bool "seed + 1 differs" true (doc1 <> Export.to_string d3);
  (* Every profile.* series must move over the run: one that stays
     constant is telemetry nothing in an experiment feeds. *)
  let field name = function
    | Export.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "timeline document is not an object"
  in
  let items = function
    | Export.Arr l -> l
    | _ -> Alcotest.fail "timeline field is not an array"
  in
  let rows = List.map items (items (field "samples" d1)) in
  let profiled = ref 0 in
  List.iteri
    (fun i name ->
      match name with
      | Export.Str n when String.starts_with ~prefix:"profile." n ->
          incr profiled;
          (* Column 0 of a row is the sample time. *)
          let values =
            List.sort_uniq compare (List.map (fun r -> List.nth r (i + 1)) rows)
          in
          check Alcotest.bool (n ^ " takes more than one value") true
            (List.length values > 1)
      | _ -> ())
    (items (field "series" d1));
  check Alcotest.bool "profile series present" true (!profiled > 0)

(* --- timeline: allocation only at snapshot boundaries -------------------- *)

(* Steady-state batched forwarding with a timeline attached (but between
   ticks) allocates nothing; taking a snapshot is the only allocation
   point. *)
let test_timeline_gc_snapshot_boundary () =
  let engine = Engine.create ~seed:9 () in
  let tl = Timeline.create ~engine ~interval:(Time.sec 1) () in
  let pool = Pool.create ~capacity:64 ~mint:(fun _ -> udp ()) () in
  let ring = Ring.create ~capacity:64 in
  let sink =
    Element.make_batch "gc.sink"
      ~single:(fun pkt -> Pool.recycle pool pkt)
      ~batch:(fun b ->
        for i = 0 to Batch.length b - 1 do
          Pool.recycle pool (Batch.unsafe_get b i)
        done)
  in
  Timeline.watch_pool tl ~prefix:"pool" pool;
  Timeline.watch_ring tl ~prefix:"ring" ring;
  let batch = Batch.create ~capacity:32 in
  let breath () =
    for _ = 1 to 32 do
      if Pool.available pool > 0 then ignore (Ring.push ring (Pool.take pool))
    done;
    Batch.clear batch;
    let n = Ring.pop_into ring batch ~max:32 in
    if n > 0 then Element.push_batch sink batch
  in
  (* Warmup settles the pool/ring population and freezes the source set
     with one snapshot. *)
  for _ = 1 to 10 do breath () done;
  Timeline.sample_now tl;
  (* [quick_stat] for the zero check (same idiom as the click zero-alloc
     test); the exact [Gc.minor_words] counter for the positive check,
     since on OCaml 5.1 [quick_stat] only refreshes at minor
     collections and a snapshot's row is far smaller than one. *)
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to 1_000 do breath () done;
  let w1 = (Gc.quick_stat ()).Gc.minor_words in
  check Alcotest.int "zero minor words between snapshots" 0
    (int_of_float (w1 -. w0));
  let m0 = Gc.minor_words () in
  Timeline.sample_now tl;
  let m1 = Gc.minor_words () in
  check Alcotest.bool "snapshot is the allocation point" true
    (m1 -. m0 > 2.0);
  check Alcotest.int "both snapshots retained" 2 (Timeline.nsamples tl)

(* --- per-hop span tiling under bursting ---------------------------------- *)

module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Pnode = Vini_phys.Pnode
module Process = Vini_phys.Process
module Slice = Vini_phys.Slice
module Sspan = Vini_sim.Span
module Mspan = Vini_measure.Span

(* With [burst > 1] and spans on, each packet's Cpu_service span covers
   its own cost-proportional slice of the breath: positive width,
   pairwise non-overlapping, and tiling the service window end to end. *)
let test_burst_span_per_hop_tiling () =
  let engine = Engine.create ~seed:21 () in
  let g =
    Graph.create ~names:[| "n0" |] ~links:[]
  in
  let u = Underlay.create ~engine ~rng:(Vini_std.Rng.create 5) ~graph:g () in
  let n0 = Underlay.node u 0 in
  let recorder = Sspan.create ~capacity:4096 () in
  Sspan.install recorder;
  let proc =
    Process.create ~node:n0 ~slice:(Slice.pl_vini "s") ~name:"burster"
      ~burst:8
      ~handler:(fun _ -> ())
      ()
  in
  let inject = Process.open_queue proc () in
  for _ = 1 to 8 do
    ignore (inject (udp ()))
  done;
  Engine.run engine;
  Sspan.uninstall ();
  check Alcotest.int "all packets served" 8 (Process.packets_processed proc);
  check Alcotest.int "one breath" 1 (Process.breaths proc);
  let services =
    List.concat_map
      (fun tree ->
        List.filter
          (fun h -> h.Mspan.h_attribution = Sspan.Cpu_service)
          tree.Mspan.hops)
      (Mspan.trees recorder)
    |> List.sort (fun a b -> Time.compare a.Mspan.h_t0 b.Mspan.h_t0)
  in
  check Alcotest.int "one Cpu_service span per packet" 8
    (List.length services);
  List.iter
    (fun h ->
      check Alcotest.bool "positive width" true
        (Time.compare h.Mspan.h_t1 h.Mspan.h_t0 > 0))
    services;
  let rec tiled = function
    | a :: (b :: _ as rest) ->
        (* Contiguous, non-overlapping tiling of the breath window. *)
        check Alcotest.bool "spans tile the service window" true
          (Time.compare a.Mspan.h_t1 b.Mspan.h_t0 = 0);
        tiled rest
    | _ -> ()
  in
  tiled services;
  let first = List.hd services and last = List.nth services 7 in
  let window_s = Time.to_sec_f (Time.sub last.Mspan.h_t1 first.Mspan.h_t0) in
  let sum_s =
    List.fold_left (fun acc h -> acc +. Mspan.hop_duration_s h) 0.0 services
  in
  check (Alcotest.float 1e-12) "slices sum to the window" window_s sum_s

(* --- spans document: profile sections and counter tracks ----------------- *)

let test_spans_document_profile_sections () =
  let p = Profile.create () in
  let sink = Element.make "doc.sink" (fun _ -> ()) in
  Profile.install p;
  Profile.set_service_cost 0.002;
  Element.push sink (udp ());
  Profile.clear_service_cost ();
  Profile.uninstall ();
  let recorder = Vini_sim.Span.create ~capacity:16 () in
  let engine = Engine.create () in
  let timeline = Timeline.create ~engine ~interval:(Time.ms 500) () in
  Timeline.counter timeline ~name:"c.one" (fun () -> 1.0);
  Engine.run ~until:(Time.sec 1) engine;
  let doc = Export.spans_document ~profile:p ~timeline recorder in
  let member k = Export.member k doc in
  (match Option.bind (member "element_profile") Export.to_list with
  | Some rows -> check Alcotest.int "element_profile rows" 1 (List.length rows)
  | None -> Alcotest.fail "element_profile missing");
  (match Option.bind (member "collapsed") Export.to_list with
  | Some [ Export.Str line ] ->
      check Alcotest.string "collapsed line" "doc.sink 2000" line
  | _ -> Alcotest.fail "collapsed missing");
  (match Option.bind (member "traceEvents") Export.to_list with
  | Some evs ->
      let cs =
        List.filter
          (fun e ->
            match Option.bind (Export.member "ph" e) Export.to_str with
            | Some "C" -> true
            | _ -> false)
          evs
      in
      check Alcotest.int "counter events" 2 (List.length cs)
  | None -> Alcotest.fail "traceEvents missing");
  (* Without the optional arguments the document is unchanged. *)
  let plain = Export.spans_document recorder in
  check Alcotest.bool "no profile sections by default" true
    (Export.member "element_profile" plain = None
    && Export.member "collapsed" plain = None)

let suite =
  [
    Alcotest.test_case "element attribution" `Quick test_element_attribution;
    Alcotest.test_case "watermark monotonicity" `Quick
      test_watermark_monotonicity;
    Alcotest.test_case "timeline roundtrip+escaping" `Quick
      test_timeline_roundtrip_escaping;
    Alcotest.test_case "timeline seed byte-identity" `Slow
      test_timeline_seed_byte_identity;
    Alcotest.test_case "timeline Gc snapshot boundary" `Quick
      test_timeline_gc_snapshot_boundary;
    Alcotest.test_case "burst span per-hop tiling" `Quick
      test_burst_span_per_hop_tiling;
    Alcotest.test_case "spans document profile sections" `Quick
      test_spans_document_profile_sections;
  ]
