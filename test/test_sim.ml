(* Tests for the discrete-event engine and time arithmetic. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Trace = Vini_sim.Trace

let check = Alcotest.check
let time = Alcotest.testable Time.pp (fun a b -> Time.compare a b = 0)

let test_time_units () =
  check time "1 s = 1000 ms" (Time.sec 1) (Time.ms 1000);
  check time "1 ms = 1000 us" (Time.ms 1) (Time.us 1000);
  check time "1 us = 1000 ns" (Time.us 1) (Time.ns 1000);
  check time "float roundtrip" (Time.ms 1500) (Time.of_sec_f 1.5);
  check (Alcotest.float 1e-12) "to_sec" 0.25 (Time.to_sec_f (Time.ms 250))

let test_time_arith () =
  check time "add" (Time.sec 3) (Time.add (Time.sec 1) (Time.sec 2));
  check time "sub" (Time.sec 1) (Time.sub (Time.sec 3) (Time.sec 2));
  check time "mul" (Time.sec 6) (Time.mul (Time.sec 2) 3);
  check time "min" (Time.sec 1) (Time.min (Time.sec 1) (Time.sec 2));
  check time "max" (Time.sec 2) (Time.max (Time.sec 1) (Time.sec 2))

(* [of_ns_f] rounds without libm, and must agree with
   [int_of_float (Float.round x)] everywhere: on ties, just below a tie,
   around 2^52 where the fraction runs out, on -0.0 and nan, and on
   random values across magnitudes. *)
let test_time_rounding () =
  let want x = int_of_float (Float.round x) in
  let p52 = 4503599627370496.0 in
  List.iter
    (fun x ->
      check Alcotest.int (Printf.sprintf "of_ns_f %h" x) (want x) (Time.of_ns_f x))
    [ 0.5; -0.5; 2.5; -2.5; 1.5; -1.5; 0.49999999999999994;
      -0.49999999999999994; p52 -. 1.0; p52; p52 +. 1.0; -.p52 -. 1.0; -.p52;
      -.p52 +. 1.0; p52 -. 0.5; -.p52 +. 0.5; -0.0; 0.0; nan ];
  let rng = Vini_std.Rng.create 2024 in
  for _ = 1 to 100_000 do
    let mag = 10.0 ** Vini_std.Rng.uniform rng (-3.0) 18.0 in
    let x = Vini_std.Rng.uniform rng (-.mag) mag in
    if Time.of_ns_f x <> want x then
      Alcotest.failf "of_ns_f %h = %d, Float.round gives %d" x (Time.of_ns_f x)
        (want x)
  done;
  check time "of_sec_f rounds a tie up" (Time.ns 976563)
    (Time.of_sec_f (1.0 /. 1024.0));
  check time "of_ms_f rounds a negative tie down" (Time.ns (-7813))
    (Time.of_ms_f (-1.0 /. 128.0))

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.at e (Time.ms 30) (note "c"));
  ignore (Engine.at e (Time.ms 10) (note "a"));
  ignore (Engine.at e (Time.ms 20) (note "b"));
  Engine.run e;
  check Alcotest.(list string) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  (* Events at the same instant fire in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.at e (Time.ms 5) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "fifo at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.at e (Time.ms 42) (fun () -> seen := Engine.now e));
  Engine.run e;
  check time "clock at callback" (Time.ms 42) !seen;
  check time "clock after run" (Time.ms 42) (Engine.now e)

let test_engine_until_advances_clock () =
  let e = Engine.create () in
  ignore (Engine.at e (Time.sec 100) (fun () -> ()));
  Engine.run ~until:(Time.sec 10) e;
  check time "stopped at until" (Time.sec 10) (Engine.now e);
  check Alcotest.int "event still pending" 1 (Engine.pending e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e (Time.ms 5) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  check Alcotest.bool "cancelled did not fire" false !fired;
  check Alcotest.bool "is_cancelled" true (Engine.is_cancelled h)

let test_engine_after_relative () =
  let e = Engine.create () in
  let at = ref Time.zero in
  ignore
    (Engine.at e (Time.ms 10) (fun () ->
         ignore (Engine.after e (Time.ms 7) (fun () -> at := Engine.now e))));
  Engine.run e;
  check time "after is relative" (Time.ms 17) !at

let test_engine_past_schedules_now () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.at e (Time.ms 10) (fun () ->
         (* Scheduling into the past clamps to now. *)
         ignore (Engine.at e (Time.ms 1) (fun () -> order := "late" :: !order));
         order := "first" :: !order));
  Engine.run e;
  check Alcotest.(list string) "clamped" [ "first"; "late" ] (List.rev !order);
  check time "clock never went back" (Time.ms 10) (Engine.now e)

let test_engine_every_stops () =
  let e = Engine.create () in
  let n = ref 0 in
  Engine.every e (Time.ms 10) (fun () ->
      incr n;
      !n < 5);
  Engine.run e;
  check Alcotest.int "ran 5 times then stopped" 5 !n

let test_engine_every_jitter_bounded () =
  let e = Engine.create () in
  let stamps = ref [] in
  Engine.every e ~jitter:(Time.ms 5) (Time.ms 100) (fun () ->
      stamps := Engine.now e :: !stamps;
      List.length !stamps < 20);
  Engine.run e;
  let stamps = List.rev !stamps in
  List.iteri
    (fun i t ->
      let base = Time.ms (100 * (i + 1)) in
      let delta = Time.to_ms_f (Time.sub t base) in
      check Alcotest.bool
        (Printf.sprintf "firing %d within jitter (%.2f)" i delta)
        true
        (delta >= -0.001 && delta <= 5.001 *. float_of_int (i + 1)))
    stamps

let test_engine_step () =
  let e = Engine.create () in
  ignore (Engine.at e (Time.ms 1) (fun () -> ()));
  check Alcotest.bool "one step" true (Engine.step e);
  check Alcotest.bool "exhausted" false (Engine.step e)

let test_engine_deterministic_replay () =
  let run () =
    let e = Engine.create ~seed:5 () in
    let acc = ref [] in
    let rng = Engine.rng e in
    for _ = 1 to 50 do
      let d = Vini_std.Rng.int rng 1000 in
      ignore (Engine.after e (Time.us d) (fun () -> acc := d :: !acc))
    done;
    Engine.run e;
    !acc
  in
  check Alcotest.(list int) "identical runs" (run ()) (run ())

let test_trace_order_and_find () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.at e (Time.ms 1) (fun () ->
      Trace.record tr ~component:"a" (Trace.Custom "x")));
  ignore (Engine.at e (Time.ms 2) (fun () ->
      Trace.record tr ~component:"b" (Trace.Packet_tx { bytes = 100 })));
  ignore (Engine.at e (Time.ms 3) (fun () ->
      Trace.record tr ~component:"a" (Trace.Custom "z")));
  Engine.run e;
  check Alcotest.int "three events" 3 (List.length (Trace.events tr));
  check Alcotest.int "two at component a" 2
    (List.length (Trace.find tr ~component:"a"));
  (* Events are stamped with the engine clock (set_clock wired by create). *)
  (match Trace.events tr with
  | first :: _ -> check time "stamped at 1ms" (Time.ms 1) first.Trace.time
  | [] -> Alcotest.fail "no events");
  check Alcotest.int "one packet_tx" 1
    (List.length (Trace.find_cat tr Trace.Category.Packet_tx));
  Trace.clear tr;
  check Alcotest.int "cleared" 0 (List.length (Trace.events tr))

let test_trace_ring_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~component:"c" (Trace.Custom (string_of_int i))
  done;
  check Alcotest.int "len capped at capacity" 4 (Trace.length tr);
  check Alcotest.int "capacity" 4 (Trace.capacity tr);
  check Alcotest.int "overwritten counts the loss" 6 (Trace.overwritten tr);
  let details =
    List.map
      (fun (ev : Trace.event) ->
        match ev.Trace.kind with Trace.Custom d -> d | _ -> "?")
      (Trace.events tr)
  in
  check Alcotest.(list string) "oldest evicted, order kept"
    [ "7"; "8"; "9"; "10" ] details;
  Trace.clear tr;
  check Alcotest.int "clear resets overwritten" 0 (Trace.overwritten tr)

let test_trace_category_filtering () =
  let tr = Trace.create ~categories:[ Trace.Category.Packet_drop ] () in
  Trace.record tr ~component:"el" (Trace.Packet_tx { bytes = 10 });
  Trace.record tr ~component:"el"
    (Trace.Packet_drop { reason = "queue-overflow"; bytes = 10 });
  check Alcotest.int "disabled category records nothing" 1 (Trace.length tr);
  check Alcotest.bool "drop enabled" true
    (Trace.enabled tr Trace.Category.Packet_drop);
  check Alcotest.bool "tx disabled" false
    (Trace.enabled tr Trace.Category.Packet_tx);
  Trace.enable tr Trace.Category.Packet_tx;
  Trace.record tr ~component:"el" (Trace.Packet_tx { bytes = 10 });
  check Alcotest.int "enabled after enable" 2 (Trace.length tr);
  Trace.disable tr Trace.Category.Packet_drop;
  Trace.record tr ~component:"el"
    (Trace.Packet_drop { reason = "x"; bytes = 1 });
  check Alcotest.int "disabled after disable" 2 (Trace.length tr)

let test_trace_global_sink () =
  check Alcotest.bool "no sink: off" false (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"nowhere" (Trace.Custom "dropped on the floor");
  let tr = Trace.create ~categories:[ Trace.Category.Custom ] () in
  Trace.install tr;
  check Alcotest.bool "installed: custom on" true
    (Trace.on Trace.Category.Custom);
  check Alcotest.bool "installed: tx still off" false
    (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"somewhere" (Trace.Custom "landed");
  Trace.emit ~component:"somewhere" (Trace.Packet_tx { bytes = 1 });
  check Alcotest.int "only enabled category recorded" 1 (Trace.length tr);
  Trace.enable tr Trace.Category.Packet_tx;
  check Alcotest.bool "enable refreshes global mask" true
    (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"somewhere" (Trace.Packet_tx { bytes = 1 });
  Trace.uninstall ();
  check Alcotest.bool "uninstalled: off again" false
    (Trace.on Trace.Category.Custom);
  Trace.emit ~component:"somewhere" (Trace.Custom "after uninstall");
  check Alcotest.int "sink untouched after uninstall" 2 (Trace.length tr)

let test_engine_pending_counts_live () =
  (* pending is the live-event count (O(1)): cancellation is reflected
     immediately, and the lazy-delete sweep must not disturb it. *)
  let e = Engine.create () in
  let handles =
    List.init 200 (fun i -> Engine.at e (Time.us (i + 1)) (fun () -> ()))
  in
  check Alcotest.int "all live" 200 (Engine.pending e);
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) handles;
  check Alcotest.int "cancelled excluded" 100 (Engine.pending e);
  (match handles with
  | h :: _ ->
      Engine.cancel h;
      check Alcotest.int "double cancel counted once" 100 (Engine.pending e)
  | [] -> ());
  (* Growth with half the queue dead; the count must hold. *)
  let fired = ref 0 in
  for i = 1 to 500 do
    ignore (Engine.at e (Time.ms i) (fun () -> incr fired))
  done;
  check Alcotest.int "after sweep and growth" 600 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "exactly the live ones fired" 600 (100 + !fired);
  check Alcotest.int "drained" 0 (Engine.pending e)

let test_engine_lazy_delete_compaction () =
  (* Once cancelled entries outnumber live ones, the next schedule sweeps
     them out in bulk: each is accounted exactly once, at sweep time, and
     the survivors still fire in order. *)
  let e = Engine.create () in
  let handles =
    List.init 200 (fun i -> Engine.at e (Time.us (i + 1)) (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 4 <> 0 then Engine.cancel h) handles;
  check Alcotest.int "nothing swept yet" 0 (Engine.events_cancelled e);
  let log = ref [] in
  ignore (Engine.at e (Time.ms 1) (fun () -> log := Engine.now e :: !log));
  check Alcotest.int "dead entries swept" 150 (Engine.events_cancelled e);
  check Alcotest.int "live ones kept" 51 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "survivors fired" 51 (Engine.events_fired e);
  check Alcotest.int "cancelled counted once" 150 (Engine.events_cancelled e);
  check Alcotest.(list time) "last survivor last" [ Time.ms 1 ] !log

let test_engine_cancel_from_callback () =
  (* One callback schedules an event, a later one cancels it: it never
     fires, the live count drops at cancel time, and the dead entry is
     counted when popped. *)
  let e = Engine.create () in
  let fired = ref false in
  let h = ref None in
  ignore
    (Engine.at e (Time.ms 1) (fun () ->
         h := Some (Engine.at e (Time.ms 30) (fun () -> fired := true))));
  ignore
    (Engine.at e (Time.ms 10) (fun () ->
         check Alcotest.int "target live" 1 (Engine.pending e);
         Engine.cancel (Option.get !h);
         check Alcotest.int "live count dropped" 0 (Engine.pending e)));
  Engine.run e;
  check Alcotest.bool "cancelled in time" false !fired;
  check Alcotest.int "drained" 0 (Engine.pending e);
  check Alcotest.int "popped and counted" 1 (Engine.events_cancelled e);
  check time "clock stops at the last live event" (Time.ms 10) (Engine.now e)

let test_engine_inline_schedule_neutral () =
  (* Breath coalescing must be invisible: a tail-scheduled event runs
     inline only when it is strictly earlier than every queued event and
     within the run limit.  Profiling disables inlining, so the two runs
     below take the two routes and must log the same schedule. *)
  let workload ~profiling =
    let e = Engine.create ~seed:5 () in
    Engine.set_profiling e profiling;
    let log = ref [] in
    let note tag () = log := (tag, Engine.now e) :: !log in
    ignore (Engine.at e (Time.us 3) (note "q3"));
    ignore (Engine.at e (Time.us 5) (note "q5"));
    let rec chain n () =
      note (Printf.sprintf "c%d" n) ();
      if n < 6 then Engine.after_inline e (Time.us 1) (chain (n + 1))
    in
    ignore (Engine.at e (Time.us 1) (chain 0));
    Engine.run ~until:(Time.us 6) e;
    (List.rev !log, Engine.events_fired e, Engine.events_inlined e,
     Engine.pending e)
  in
  let expected =
    [ ("c0", 1); ("c1", 2); ("q3", 3); ("c2", 3); ("c3", 4); ("q5", 5);
      ("c4", 5); ("c5", 6) ]
    |> List.map (fun (tag, us) -> (tag, Time.us us))
  in
  let log, fired, inlined, pending = workload ~profiling:false in
  check Alcotest.(list (pair string time)) "inlined schedule" expected log;
  check Alcotest.int "c1, c3 and c5 ran inline" 3 inlined;
  let log', fired', inlined', pending' = workload ~profiling:true in
  check Alcotest.(list (pair string time)) "queued schedule" expected log';
  check Alcotest.int "nothing inline under profiling" 0 inlined';
  check Alcotest.int "same fired count" fired fired';
  check Alcotest.int "c6 beyond the limit stays queued" 1 pending;
  check Alcotest.int "on both routes" pending pending'

let test_engine_instrumentation () =
  let e = Engine.create () in
  Engine.set_profiling e true;
  for i = 1 to 100 do
    ignore (Engine.at e (Time.us i) (fun () -> ()))
  done;
  check Alcotest.int "max_pending high-water" 100 (Engine.max_pending e);
  let h = Engine.at e (Time.ms 5) (fun () -> ()) in
  Engine.cancel h;
  Engine.run e;
  check Alcotest.int "fired" 100 (Engine.events_fired e);
  check Alcotest.int "cancelled popped" 1 (Engine.events_cancelled e);
  check Alcotest.int "horizon histogram populated" 101
    (Vini_std.Histogram.count (Engine.horizon_hist e));
  check Alcotest.int "callback histogram populated" 100
    (Vini_std.Histogram.count (Engine.callback_hist e))

(* ---- the per-packet flight recorder (hot half) ------------------------- *)

module Span = Vini_sim.Span

let span_cleanup () =
  Span.uninstall ();
  Trace.uninstall ()

(* Recording follows the installed recorder alone: a trace sink, with or
   without categories enabled, neither opens nor closes it. *)
let test_span_gate_follows_recorder () =
  span_cleanup ();
  check Alcotest.bool "nothing installed: off" false (Span.on ());
  let r = Span.create ~capacity:8 () in
  Span.install r;
  check Alcotest.bool "recorder, no sink: on" true (Span.on ());
  Span.instant ~pkt:1 ~orig:1 ~component:"x" Span.Proto_processing;
  check Alcotest.int "recorded without a sink" 1 (Span.length r);
  let tr = Trace.create ~categories:[] () in
  Trace.install tr;
  check Alcotest.bool "sink with no categories: still on" true (Span.on ());
  Span.instant ~pkt:2 ~orig:2 ~component:"x" Span.Proto_processing;
  check Alcotest.int "recorded beside a sink" 2 (Span.length r);
  Span.uninstall ();
  check Alcotest.bool "recorder removed, sink kept: off" false (Span.on ());
  Trace.enable tr Trace.Category.Custom;
  check Alcotest.bool "sink category toggled: still off" false (Span.on ());
  Span.instant ~pkt:3 ~orig:3 ~component:"x" Span.Proto_processing;
  check Alcotest.int "nothing recorded once removed" 2 (Span.length r);
  Trace.uninstall ();
  check Alcotest.bool "all removed: off" false (Span.on ())

let test_span_ring_bounded () =
  span_cleanup ();
  let r = Span.create ~capacity:4 () in
  Span.install r;
  for i = 1 to 10 do
    Span.instant ~pkt:i ~orig:i ~component:"ring" Span.Proto_processing
  done;
  check Alcotest.int "length capped" 4 (Span.length r);
  check Alcotest.int "capacity" 4 (Span.capacity r);
  check Alcotest.int "overwritten counted" 6 (Span.overwritten r);
  check
    (Alcotest.list Alcotest.int)
    "oldest evicted, order kept" [ 7; 8; 9; 10 ]
    (List.map Span.record_pkt (Span.records r));
  Span.clear r;
  check Alcotest.int "clear empties" 0 (Span.length r);
  check Alcotest.int "clear resets overwritten" 0 (Span.overwritten r);
  span_cleanup ()

let test_span_queue_helpers () =
  span_cleanup ();
  let e = Engine.create () in
  let r = Span.create ~capacity:16 () in
  Span.install r;
  ignore (Engine.at e (Time.ms 1) (fun () -> Span.note_enqueue ~pkt:7));
  ignore
    (Engine.at e (Time.ms 3) (fun () ->
         Span.dequeue_hop ~pkt:7 ~orig:7 ~component:"q" ();
         (* Unknown id and zero wait both record nothing. *)
         Span.dequeue_hop ~pkt:99 ~orig:99 ~component:"q" ();
         Span.note_enqueue ~pkt:8;
         Span.dequeue_hop ~pkt:8 ~orig:8 ~component:"q" ()));
  Engine.run e;
  (match Span.records r with
  | [ Span.Hop { pkt = 7; attribution = Span.Queueing; t0; t1; _ } ] ->
      check time "wait opens at enqueue" (Time.ms 1) t0;
      check time "wait closes at dequeue" (Time.ms 3) t1
  | records ->
      Alcotest.failf "expected exactly the pkt-7 queueing hop, got %d records"
        (List.length records));
  span_cleanup ()

let test_span_disabled_records_nothing () =
  span_cleanup ();
  let r = Span.create ~capacity:8 () in
  (* Not installed: emitters must be inert even when called directly. *)
  Span.origin ~pkt:1 ~orig:1 ~bytes:64 ~component:"x" ();
  Span.drop ~pkt:1 ~orig:1 ~component:"x" ~reason:"r" ~bytes:64 ();
  Span.note_enqueue ~pkt:1;
  Span.dequeue_hop ~pkt:1 ~orig:1 ~component:"x" ();
  check Alcotest.int "nothing recorded" 0 (Span.length r)

let test_span_attribution_names () =
  List.iter
    (fun a ->
      check Alcotest.bool "name round-trips" true
        (Span.attribution_of_name (Span.attribution_name a) = Some a))
    Span.attributions;
  check Alcotest.bool "unknown name rejected" true
    (Span.attribution_of_name "warp_drive" = None)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "time arithmetic" `Quick test_time_arith;
    Alcotest.test_case "time rounding matches Float.round" `Quick
      test_time_rounding;
    Alcotest.test_case "events fire in order" `Quick test_engine_ordering;
    Alcotest.test_case "equal times are fifo" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
    Alcotest.test_case "run ~until" `Quick test_engine_until_advances_clock;
    Alcotest.test_case "cancellation" `Quick test_engine_cancel;
    Alcotest.test_case "after is relative" `Quick test_engine_after_relative;
    Alcotest.test_case "past schedule clamps" `Quick test_engine_past_schedules_now;
    Alcotest.test_case "every stops on false" `Quick test_engine_every_stops;
    Alcotest.test_case "every jitter bounded" `Quick test_engine_every_jitter_bounded;
    Alcotest.test_case "single step" `Quick test_engine_step;
    Alcotest.test_case "deterministic replay" `Quick test_engine_deterministic_replay;
    Alcotest.test_case "trace records and finds" `Quick test_trace_order_and_find;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_ring_wraparound;
    Alcotest.test_case "trace category filtering" `Quick
      test_trace_category_filtering;
    Alcotest.test_case "trace global sink" `Quick test_trace_global_sink;
    Alcotest.test_case "pending counts live events" `Quick
      test_engine_pending_counts_live;
    Alcotest.test_case "lazy-delete compaction" `Quick
      test_engine_lazy_delete_compaction;
    Alcotest.test_case "cancel from a callback" `Quick
      test_engine_cancel_from_callback;
    Alcotest.test_case "inline coalescing is schedule-neutral" `Quick
      test_engine_inline_schedule_neutral;
    Alcotest.test_case "engine instrumentation" `Quick
      test_engine_instrumentation;
    Alcotest.test_case "span gate follows the recorder" `Quick
      test_span_gate_follows_recorder;
    Alcotest.test_case "span ring bounded" `Quick test_span_ring_bounded;
    Alcotest.test_case "span queue helpers" `Quick test_span_queue_helpers;
    Alcotest.test_case "span disabled is inert" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "span attribution names" `Quick
      test_span_attribution_names;
  ]
