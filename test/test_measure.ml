(* Tests for the measurement tools: ping, iperf, tcpdump capture. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Ipstack = Vini_phys.Ipstack
module Ping = Vini_measure.Ping
module Iperf = Vini_measure.Iperf
module Tcpdump = Vini_measure.Tcpdump
module Tcp = Vini_transport.Tcp

let check = Alcotest.check

let test_ping_counts_and_rtt () =
  let engine = Engine.create ~seed:1 () in
  let a, b = Harness.stack_pair ~engine ~delay:(Time.ms 12) () in
  let p = Ping.start ~stack:a ~dst:(Ipstack.local_addr b) ~count:100 () in
  Engine.run ~until:(Time.sec 30) engine;
  check Alcotest.int "sent" 100 (Ping.sent p);
  check Alcotest.int "received" 100 (Ping.received p);
  check (Alcotest.float 0.5) "rtt = 24 ms" 24.0
    (Vini_std.Stats.mean (Ping.rtt_ms p));
  check (Alcotest.float 0.001) "no loss" 0.0 (Ping.loss_pct p);
  check Alcotest.bool "finished" true (Ping.finished p);
  check Alcotest.int "series complete" 100 (List.length (Ping.series p))

let test_ping_loss_accounting () =
  let engine = Engine.create ~seed:5 () in
  let a, b = Harness.stack_pair ~engine ~delay:(Time.ms 5) ~loss:0.3 () in
  let p = Ping.start ~stack:a ~dst:(Ipstack.local_addr b) ~count:60 () in
  Engine.run ~until:(Time.sec 120) engine;
  check Alcotest.int "all probes sent despite loss" 60 (Ping.sent p);
  check Alcotest.bool
    (Printf.sprintf "loss observed (%.0f%%)" (Ping.loss_pct p))
    true
    (Ping.loss_pct p > 20.0)

let test_ping_flood_floor () =
  (* On a near-zero-delay path, ping -f paces at ~10 ms: 50 pings need
     about half a second. *)
  let engine = Engine.create ~seed:7 () in
  let a, b = Harness.stack_pair ~engine ~delay:(Time.us 100) () in
  let p = Ping.start ~stack:a ~dst:(Ipstack.local_addr b) ~count:50 () in
  let finish_time = ref Time.zero in
  Ping.on_finish p (fun () -> finish_time := Engine.now engine);
  Engine.run ~until:(Time.sec 10) engine;
  let s = Time.to_sec_f !finish_time in
  check Alcotest.bool (Printf.sprintf "flood floor respected (%.2f s)" s) true
    (s > 0.45 && s < 0.65)

let test_ping_interval_mode () =
  let engine = Engine.create ~seed:9 () in
  let a, b = Harness.stack_pair ~engine ~delay:(Time.ms 1) () in
  let p =
    Ping.start ~stack:a ~dst:(Ipstack.local_addr b) ~count:10
      ~mode:(Ping.Interval (Time.ms 500)) ()
  in
  let finish_time = ref Time.zero in
  Ping.on_finish p (fun () -> finish_time := Engine.now engine);
  Engine.run ~until:(Time.sec 20) engine;
  let s = Time.to_sec_f !finish_time in
  check Alcotest.bool (Printf.sprintf "interval pacing (%.2f s)" s) true
    (s > 4.4 && s < 5.2)

let test_iperf_tcp_measures_window () =
  let engine = Engine.create ~seed:11 () in
  let client, server = Harness.stack_pair ~engine ~delay:(Time.ms 10) () in
  let run =
    Iperf.tcp ~client ~server ~streams:4 ~rwnd:(32 * 1024) ~start:(Time.sec 1)
      ~warmup:(Time.sec 1) ~duration:(Time.sec 5) ()
  in
  Engine.run ~until:(Time.sec 8) engine;
  (* 4 streams x 32 KB / 20 ms RTT = 52 Mb/s theoretical ceiling. *)
  let mbps = Iperf.tcp_mbps run in
  check Alcotest.bool (Printf.sprintf "window-bound (%.1f Mb/s)" mbps) true
    (mbps > 30.0 && mbps < 55.0);
  check Alcotest.bool "bytes counted" true (Iperf.tcp_total_delivered run > 0);
  check Alcotest.int "clean path" 0 (Iperf.tcp_retransmits run + Iperf.tcp_timeouts run)

let test_iperf_udp_loss_and_jitter () =
  let engine = Engine.create ~seed:13 () in
  let client, server = Harness.stack_pair ~engine ~delay:(Time.ms 10) ~loss:0.1 () in
  let run =
    Iperf.udp ~client ~server ~rate_bps:2e6 ~start:(Time.sec 1)
      ~duration:(Time.sec 5) ()
  in
  Engine.run ~until:(Time.sec 8) engine;
  check Alcotest.bool
    (Printf.sprintf "udp loss (%.1f%%)" (Iperf.udp_loss_pct run))
    true
    (Iperf.udp_loss_pct run > 4.0);
  check Alcotest.bool "received some" true (Iperf.udp_received run > 0);
  (* Constant delay path: jitter near zero. *)
  check Alcotest.bool "jitter small" true (Iperf.udp_jitter_ms run < 1.0)

let test_tcpdump_capture () =
  let engine = Engine.create ~seed:17 () in
  let client, server = Harness.stack_pair ~engine ~delay:(Time.ms 5) () in
  let dump = Tcpdump.create engine in
  Tcp.listen ~stack:server ~port:5001
    ~on_accept:(fun conn -> Tcpdump.attach dump conn)
    ();
  let conn =
    Tcp.connect ~stack:client ~dst:(Ipstack.local_addr server) ~dst_port:5001 ()
  in
  Tcp.send conn 50_000;
  Tcp.close conn;
  Engine.run ~until:(Time.sec 30) engine;
  check Alcotest.bool "captured segments" true (Tcpdump.count dump > 10);
  let cum = Tcpdump.cumulative_bytes dump in
  check Alcotest.bool "cumulative grows to total" true
    (match List.rev cum with (_, total) :: _ -> total = 50_000 | [] -> false);
  (* Monotonic non-decreasing cumulative series. *)
  let rec monotonic = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotonic rest
    | _ -> true
  in
  check Alcotest.bool "monotonic" true (monotonic cum);
  check Alcotest.bool "positions recorded" true
    (List.length (Tcpdump.segment_positions dump) > 10);
  (* Capture rows carry the packet id that keys into the flight
     recorder: present, positive, and not all the same. *)
  let ids = List.map (fun (_, id, _) -> id) (Tcpdump.packets dump) in
  check Alcotest.bool "ids positive" true (List.for_all (fun i -> i > 0) ids);
  check Alcotest.bool "ids vary across packets" true
    (List.sort_uniq compare ids |> List.length > 1)

module Timeline = Vini_measure.Timeline

let test_sampler_sampling () =
  let engine = Engine.create () in
  let m = Timeline.create ~engine ~interval:(Time.ms 100) () in
  let counter = ref 0.0 in
  Timeline.gauge m ~name:"counter" (fun () -> !counter);
  (* The counter grows 10 units per second. *)
  Engine.every engine (Time.ms 10) (fun () ->
      counter := !counter +. 0.1;
      Time.compare (Engine.now engine) (Time.sec 5) < 0);
  Engine.run ~until:(Time.sec 3) engine;
  Timeline.stop m;
  Engine.run ~until:(Time.sec 4) engine;
  match Timeline.series m with
  | [ (name, Timeline.Gauge, s) ] ->
      check Alcotest.string "name" "counter" name;
      check Alcotest.int "one point per 100 ms until stop" 30 (List.length s);
      List.iteri
        (fun i (t, v) ->
          check (Alcotest.float 1e-9) "sampled on the sim clock"
            (0.1 *. float_of_int (i + 1)) t;
          check Alcotest.bool (Printf.sprintf "value tracks 10/s (%.2f)" v)
            true (Float.abs (v -. (10.0 *. t)) < 0.15))
        s
  | _ -> Alcotest.fail "expected the one gauge"

let test_sampler_duplicate_names () =
  let engine = Engine.create () in
  let m = Timeline.create ~engine () in
  Timeline.gauge m ~name:"x" (fun () -> 0.0);
  Alcotest.check_raises "series names are one namespace across kinds"
    (Invalid_argument "Timeline: duplicate series x")
    (fun () -> Timeline.counter m ~name:"x" (fun () -> 0.0));
  let h = Vini_std.Histogram.create () in
  Timeline.histogram m ~name:"x" h;
  Alcotest.check_raises "duplicate histogram"
    (Invalid_argument "Timeline: duplicate histogram x")
    (fun () -> Timeline.histogram m ~name:"x" h)

(* --- export ------------------------------------------------------------- *)

module Export = Vini_measure.Export
module STrace = Vini_sim.Trace

let test_export_json_roundtrip () =
  (* A document with every node type, awkward strings and non-finite
     numbers must survive to_string |> of_string. *)
  let doc =
    Export.Obj
      [
        ("s", Export.Str "quotes \" backslash \\ newline \n tab \t");
        ("n", Export.Num 1.5e-9);
        ("i", Export.Num 42.0);
        ("inf", Export.Num infinity);
        ("arr", Export.Arr [ Export.Null; Export.Bool true; Export.Num 0.0 ]);
        ("nested", Export.Obj [ ("empty_a", Export.Arr []);
                                ("empty_o", Export.Obj []) ]);
      ]
  in
  match Export.of_string (Export.to_string doc) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      check Alcotest.bool "round-trips" true (parsed = doc);
      (match Export.of_string "{\"a\": [1,2]} trailing" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "trailing garbage accepted")

let test_export_document_roundtrip () =
  let engine = Engine.create () in
  let m = Timeline.create ~engine ~interval:(Time.ms 500) () in
  let v = ref 0.0 in
  Timeline.counter m ~name:"bytes" (fun () -> !v);
  Timeline.gauge m ~name:"depth" (fun () -> 3.0);
  let h = Vini_std.Histogram.create () in
  List.iter (Vini_std.Histogram.add h) [ 0.001; 0.002; 0.004; 0.008 ];
  Timeline.histogram m ~name:"lat_s" h;
  let tr = STrace.create ~capacity:16 () in
  STrace.install tr;
  Engine.every engine (Time.ms 250) (fun () ->
      v := !v +. 100.0;
      STrace.emit ~component:"t.q" (STrace.Packet_drop { reason = "x,y\"z"; bytes = 40 });
      Time.compare (Engine.now engine) (Time.sec 3) < 0);
  Engine.run ~until:(Time.sec 2) engine;
  Timeline.stop m;
  STrace.uninstall ();
  let doc = Export.document ~trace:tr m in
  let text = Export.to_string doc in
  match Export.of_string text with
  | Error e -> Alcotest.failf "document does not parse: %s" e
  | Ok parsed ->
      let get k j = Option.get (Export.member k j) in
      check Alcotest.string "schema" Export.schema_version
        (Option.get (Export.to_str (get "schema" parsed)));
      let series = Option.get (Export.to_list (get "series" parsed)) in
      let names =
        List.map (fun s -> Option.get (Export.to_str (get "name" s))) series
      in
      check Alcotest.(list string) "series names" [ "bytes"; "depth" ] names;
      let kinds =
        List.map (fun s -> Option.get (Export.to_str (get "kind" s))) series
      in
      check Alcotest.(list string) "kinds" [ "counter"; "gauge" ] kinds;
      let points s = Option.get (Export.to_list (get "points" s)) in
      check Alcotest.bool "sampled" true (List.length (points (List.hd series)) >= 3);
      let hists = Option.get (Export.to_list (get "histograms" parsed)) in
      (match hists with
      | [ hj ] ->
          check Alcotest.string "hist name" "lat_s"
            (Option.get (Export.to_str (get "name" hj)));
          check (Alcotest.float 1e-9) "hist count" 4.0
            (Option.get (Export.to_float (get "count" hj)));
          check Alcotest.bool "p50 sane" true
            (Option.get (Export.to_float (get "p50" hj)) > 0.0)
      | _ -> Alcotest.fail "expected one histogram");
      let trace = get "trace" parsed in
      let events = Option.get (Export.to_list (get "events" trace)) in
      check Alcotest.int "trace events" (STrace.length tr) (List.length events);
      let ev = List.hd events in
      check Alcotest.string "reason survives escaping" "x,y\"z"
        (Option.get (Export.to_str (get "reason" ev)))

(* A series registered after sampling started joins at the next
   snapshot: its per-series read and its vini.metrics/1 points start
   there, every series keeps its kind, and the vini.timeline/1 document,
   whose rows must be rectangular, refuses the short early rows. *)
let test_sampler_late_series () =
  let engine = Engine.create () in
  let m = Timeline.create ~engine ~interval:(Time.ms 100) () in
  Timeline.gauge m ~name:"early" (fun () -> 1.0);
  Engine.run ~until:(Time.ms 250) engine;
  Timeline.counter m ~name:"late" (fun () -> 2.0);
  Engine.run ~until:(Time.ms 450) engine;
  check Alcotest.int "four snapshots" 4 (Timeline.nsamples m);
  let times pts = List.map fst pts in
  (match Timeline.series m with
  | [ ("early", Timeline.Gauge, e); ("late", Timeline.Counter, l) ] ->
      check Alcotest.(list (float 1e-9)) "early: every snapshot"
        [ 0.1; 0.2; 0.3; 0.4 ] (times e);
      check Alcotest.(list (float 1e-9)) "late: from the next snapshot"
        [ 0.3; 0.4 ] (times l)
  | _ -> Alcotest.fail "expected early (gauge) then late (counter)");
  let get k j = Option.get (Export.member k j) in
  let series = Option.get (Export.to_list (get "series" (Export.document m))) in
  let row s =
    ( Option.get (Export.to_str (get "name" s)),
      Option.get (Export.to_str (get "kind" s)),
      List.map
        (fun p ->
          match Export.to_list p with
          | Some [ t; _ ] -> Option.get (Export.to_float t)
          | _ -> Alcotest.fail "point is not [t, v]")
        (Option.get (Export.to_list (get "points" s))) )
  in
  check
    Alcotest.(list (triple string string (list (float 1e-9))))
    "metrics document: kinds and points"
    [ ("early", "gauge", [ 0.1; 0.2; 0.3; 0.4 ]); ("late", "counter", [ 0.3; 0.4 ]) ]
    (List.map row series);
  Alcotest.check_raises "ragged timeline rows"
    (Invalid_argument
       "Timeline.document: ragged rows (a series was registered after the \
        first snapshot)")
    (fun () -> ignore (Timeline.document m))

(* The replay that needs late registration: the TCP sender's series
   join once the connection exists at t = 25 s, so over a 1 s window they
   hold the window's 5 snapshots while the engine's hold all 130. *)
let test_sampler_late_series_in_deter () =
  let doc, _ = Vini_repro.Deter.observability_run ~duration_s:1 () in
  let get k j = Option.get (Export.member k j) in
  let series = Option.get (Export.to_list (get "series" doc)) in
  let find name =
    List.find
      (fun s -> Export.to_str (get "name" s) = Some name)
      series
  in
  let times name =
    List.map
      (fun p ->
        match Export.to_list p with
        | Some [ t; _ ] -> Option.get (Export.to_float t)
        | _ -> Alcotest.fail "point is not [t, v]")
      (Option.get (Export.to_list (get "points" (find name))))
  in
  check Alcotest.int "engine.fired: every snapshot" 130
    (List.length (times "engine.fired"));
  check Alcotest.(list (float 1e-9)) "tcp.src.bytes_acked: the window"
    [ 25.2; 25.4; 25.6; 25.8; 26.0 ] (times "tcp.src.bytes_acked");
  check Alcotest.(option string) "kind kept" (Some "counter")
    (Export.to_str (get "kind" (find "tcp.src.bytes_acked")))

(* --- export edge cases --------------------------------------------------- *)

let roundtrip j =
  match Export.of_string (Export.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_export_string_escaping () =
  (* Quotes, backslashes and every control character must survive
     to_string/of_string unchanged. *)
  let controls = String.init 0x20 Char.chr in
  let nasty =
    [ "\"quoted\""; "back\\slash"; "\\\""; controls; "mixed \"\\\n\t\x01 end" ]
  in
  List.iter
    (fun s ->
      match roundtrip (Export.Str s) with
      | Export.Str s' -> check Alcotest.string "string round-trips" s s'
      | _ -> Alcotest.fail "string parsed as non-string")
    nasty;
  (* Escaping applies to object keys too. *)
  match roundtrip (Export.Obj [ ("a\"b\\c\nd", Export.Num 1.0) ]) with
  | Export.Obj [ (k, _) ] -> check Alcotest.string "key round-trips" "a\"b\\c\nd" k
  | _ -> Alcotest.fail "object shape lost"

let test_export_nonfinite_floats () =
  check Alcotest.string "nan degrades to null" "null"
    (Export.to_string (Export.Num Float.nan));
  check Alcotest.string "+inf" "1e999" (Export.to_string (Export.Num infinity));
  check Alcotest.string "-inf" "-1e999"
    (Export.to_string (Export.Num neg_infinity));
  (* The 1e999 spelling parses back as an infinity, so exports containing
     them still round-trip. *)
  (match roundtrip (Export.Num infinity) with
  | Export.Num v -> check Alcotest.bool "+inf round-trips" true (v = infinity)
  | _ -> Alcotest.fail "non-number");
  (match roundtrip (Export.Num neg_infinity) with
  | Export.Num v -> check Alcotest.bool "-inf round-trips" true (v = neg_infinity)
  | _ -> Alcotest.fail "non-number");
  (* NaN becomes Null: lossy by design, but still valid JSON. *)
  match roundtrip (Export.Num Float.nan) with
  | Export.Null -> ()
  | _ -> Alcotest.fail "nan should parse back as null"

let test_export_deep_nesting () =
  let depth = 500 in
  let deep = ref (Export.Num 7.0) in
  for _ = 1 to depth do
    deep := Export.Arr [ Export.Obj [ ("k", !deep) ] ]
  done;
  let rec unwrap n j =
    if n = 0 then j
    else
      match j with
      | Export.Arr [ Export.Obj [ ("k", inner) ] ] -> unwrap (n - 1) inner
      | _ -> Alcotest.fail "nesting shape lost"
  in
  match unwrap depth (roundtrip !deep) with
  | Export.Num v -> check (Alcotest.float 0.0) "payload survives" 7.0 v
  | _ -> Alcotest.fail "payload lost"

(* --- the flight recorder's cold half ------------------------------------- *)

module Sspan = Vini_sim.Span
module Mspan = Vini_measure.Span

(* Two hand-built causal trees: pkt 100 delivered through an encap (inner
   pkt 100, outer pkt 101, same orig), pkt 200 killed by TTL. *)
let synthetic_recorder () =
  let engine = Engine.create () in
  let r = Sspan.create ~capacity:64 () in
  Sspan.install r;
  ignore
    (Engine.at engine (Time.ms 1) (fun () ->
         Sspan.origin ~pkt:100 ~orig:100 ~bytes:1500 ~component:"src" ();
         Sspan.origin ~pkt:200 ~orig:200 ~bytes:64 ~component:"probe" ()));
  ignore
    (Engine.at engine (Time.ms 4) (fun () ->
         Sspan.hop ~pkt:100 ~orig:100 ~component:"q" Sspan.Queueing
           ~t0:(Time.ms 1) ~t1:(Time.ms 2);
         Sspan.hop ~pkt:100 ~orig:100 ~component:"cpu" Sspan.Cpu_service
           ~t0:(Time.ms 2) ~t1:(Time.ms 3);
         Sspan.hop ~pkt:101 ~orig:100 ~component:"link" Sspan.Serialization
           ~t0:(Time.ms 3) ~t1:(Time.ms 4);
         Sspan.drop ~pkt:200 ~orig:200 ~component:"router"
           ~reason:"ttl-expired" ~bytes:64 ()));
  Engine.run engine;
  Sspan.uninstall ();
  r

let test_span_trees_and_breakdown () =
  let r = synthetic_recorder () in
  let trees = Mspan.trees r in
  check Alcotest.int "two trees" 2 (List.length trees);
  let t100 = List.find (fun t -> t.Mspan.tree_orig = 100) trees in
  let t200 = List.find (fun t -> t.Mspan.tree_orig = 200) trees in
  check Alcotest.int "tree 100: three hops" 3 (List.length t100.Mspan.hops);
  check Alcotest.int "tree 100: no drops" 0 (List.length t100.Mspan.drops);
  check Alcotest.string "root component" "src" (Mspan.root_component t100);
  check (Alcotest.float 1e-9) "total latency = 3 ms" 0.003
    (Mspan.total_latency t100);
  check Alcotest.bool "encap kept one tree" true
    (List.exists (fun h -> h.Mspan.h_pkt = 101) t100.Mspan.hops);
  check Alcotest.int "tree 200 died" 1 (List.length t200.Mspan.drops);
  let rows = Mspan.breakdown trees in
  check Alcotest.int "one row per category"
    (List.length Sspan.attributions) (List.length rows);
  let row a = List.find (fun x -> x.Mspan.attribution = a) rows in
  check (Alcotest.float 1e-9) "queueing 1 ms" 0.001 (row Sspan.Queueing).Mspan.total_s;
  check (Alcotest.float 1e-9) "cpu 1 ms" 0.001 (row Sspan.Cpu_service).Mspan.total_s;
  check Alcotest.int "propagation empty" 0 (row Sspan.Propagation).Mspan.hop_count;
  (match Mspan.breakdown_by_origin trees with
  | [ ("src", _); ("probe", _) ] -> ()
  | groups ->
      Alcotest.failf "unexpected origin groups: %s"
        (String.concat "," (List.map fst groups)));
  match Mspan.worst ~n:1 trees with
  | [ w ] -> check Alcotest.int "worst is the slow tree" 100 w.Mspan.tree_orig
  | _ -> Alcotest.fail "worst ?n did not cap"

let test_span_forensics_path () =
  let r = synthetic_recorder () in
  let forensics = Mspan.forensics (Mspan.trees r) in
  match forensics with
  | [ f ] ->
      check Alcotest.int "orig" 200 f.Mspan.f_orig;
      check Alcotest.string "site" "router" f.Mspan.f_site;
      check Alcotest.string "reason" "ttl-expired" f.Mspan.f_reason;
      check Alcotest.bool "path non-empty" true (f.Mspan.f_path <> []);
      (match f.Mspan.f_path with
      | Mspan.At_origin o :: _ ->
          check Alcotest.string "path starts at the origin" "probe"
            o.Mspan.o_component
      | _ -> Alcotest.fail "path must start at the origin")
  | fs -> Alcotest.failf "expected one forensic record, got %d" (List.length fs)

let test_spans_document () =
  let r = synthetic_recorder () in
  let doc = Export.spans_document ~worst:1 r in
  let parsed = roundtrip doc in
  let get k j = Option.get (Export.member k j) in
  check Alcotest.string "schema" Export.spans_schema_version
    (Option.get (Export.to_str (get "schema" parsed)));
  let events = Option.get (Export.to_list (get "traceEvents" parsed)) in
  (* 2 origins + 3 hops + 1 drop *)
  check Alcotest.int "trace events" 6 (List.length events);
  List.iter
    (fun ev ->
      check Alcotest.bool "event has name/ph/ts" true
        (Export.member "name" ev <> None
        && Export.member "ph" ev <> None
        && Export.member "ts" ev <> None))
    events;
  check Alcotest.bool "has X and i phases" true
    (let phases =
       List.filter_map (fun ev -> Option.bind (Export.member "ph" ev) Export.to_str) events
     in
     List.mem "X" phases && List.mem "i" phases);
  let drops = Option.get (Export.to_list (get "drops" parsed)) in
  check Alcotest.int "one drop" 1 (List.length drops);
  let path = Option.get (Export.to_list (get "path" (List.hd drops))) in
  check Alcotest.bool "drop path non-empty" true (path <> []);
  let worst = Option.get (Export.to_list (get "worst_paths" parsed)) in
  check Alcotest.int "worst capped at 1" 1 (List.length worst)

let suite =
  [
    Alcotest.test_case "ping counts and rtt" `Quick test_ping_counts_and_rtt;
    Alcotest.test_case "ping loss accounting" `Quick test_ping_loss_accounting;
    Alcotest.test_case "ping flood floor" `Quick test_ping_flood_floor;
    Alcotest.test_case "ping interval mode" `Quick test_ping_interval_mode;
    Alcotest.test_case "iperf tcp window maths" `Quick test_iperf_tcp_measures_window;
    Alcotest.test_case "iperf udp loss+jitter" `Quick test_iperf_udp_loss_and_jitter;
    Alcotest.test_case "tcpdump capture" `Quick test_tcpdump_capture;
    Alcotest.test_case "sampler sampling" `Quick test_sampler_sampling;
    Alcotest.test_case "sampler duplicate names" `Quick
      test_sampler_duplicate_names;
    Alcotest.test_case "sampler late series" `Quick test_sampler_late_series;
    Alcotest.test_case "sampler late series in the DETER replay" `Quick
      test_sampler_late_series_in_deter;
    Alcotest.test_case "export json roundtrip" `Quick test_export_json_roundtrip;
    Alcotest.test_case "export document roundtrip" `Quick
      test_export_document_roundtrip;
    Alcotest.test_case "export string escaping" `Quick
      test_export_string_escaping;
    Alcotest.test_case "export non-finite floats" `Quick
      test_export_nonfinite_floats;
    Alcotest.test_case "export deep nesting" `Quick test_export_deep_nesting;
    Alcotest.test_case "span trees and breakdown" `Quick
      test_span_trees_and_breakdown;
    Alcotest.test_case "span drop forensics" `Quick test_span_forensics_path;
    Alcotest.test_case "spans document" `Quick test_spans_document;
  ]
