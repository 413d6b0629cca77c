module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Histogram = Vini_std.Histogram

type series_kind = Gauge | Counter

let series_kind_name = function Gauge -> "gauge" | Counter -> "counter"

type gauge = {
  g_name : string;
  g_kind : series_kind;
  read : unit -> float;
  mutable samples_rev : (float * float) list;
}

type t = {
  engine : Engine.t;
  mutable gauges : gauge list;
  mutable hists : (string * Histogram.t) list;
  mutable running : bool;
}

let create ~engine ?(interval = Time.sec 1) () =
  let t = { engine; gauges = []; hists = []; running = true } in
  Engine.every t.engine interval (fun () ->
      if t.running then begin
        let now = Time.to_sec_f (Engine.now t.engine) in
        List.iter
          (fun g -> g.samples_rev <- (now, g.read ()) :: g.samples_rev)
          t.gauges
      end;
      t.running);
  t

let register t ~name ~kind read =
  if List.exists (fun g -> g.g_name = name) t.gauges then
    invalid_arg "Monitor.gauge: duplicate name";
  t.gauges <-
    t.gauges @ [ { g_name = name; g_kind = kind; read; samples_rev = [] } ]

let gauge t ~name read = register t ~name ~kind:Gauge read
let counter t ~name read = register t ~name ~kind:Counter read

let histogram t ~name h =
  if List.mem_assoc name t.hists then
    invalid_arg "Monitor.histogram: duplicate name";
  t.hists <- t.hists @ [ (name, h) ]

let histograms t = t.hists

let names t = List.map (fun g -> g.g_name) t.gauges

let find t name =
  match List.find_opt (fun g -> g.g_name = name) t.gauges with
  | Some g -> g
  | None -> invalid_arg ("Monitor: unknown gauge " ^ name)

let series t ~name = List.rev (find t name).samples_rev
let kind t ~name = (find t name).g_kind

let rate t ~name =
  (* Counter-reset tolerant (Prometheus-style): a decrease means the
     underlying counter restarted, so the increase since reset is the new
     value itself. *)
  let rec diff = function
    | (t1, v1) :: ((t2, v2) :: _ as rest) when t2 > t1 ->
        let increase = if v2 >= v1 then v2 -. v1 else v2 in
        (t2, increase /. (t2 -. t1)) :: diff rest
    | _ :: rest -> diff rest
    | [] -> []
  in
  diff (series t ~name)

let stop t = t.running <- false

let watch_vnode t vn ~prefix =
  let open Vini_overlay in
  counter t ~name:(prefix ^ ".cpu_s") (fun () ->
      Time.to_sec_f (Iias.cpu_time vn));
  counter t ~name:(prefix ^ ".forwarded") (fun () ->
      float_of_int (Iias.stats vn).Iias.forwarded);
  counter t ~name:(prefix ^ ".delivered") (fun () ->
      float_of_int (Iias.stats vn).Iias.delivered);
  counter t ~name:(prefix ^ ".sock_drops") (fun () ->
      float_of_int (Iias.socket_drops vn));
  counter t ~name:(prefix ^ ".fib_cache_hits") (fun () ->
      float_of_int (fst (Iias.fib_cache_stats vn)));
  counter t ~name:(prefix ^ ".fib_cache_misses") (fun () ->
      float_of_int (snd (Iias.fib_cache_stats vn)));
  counter t ~name:(prefix ^ ".fib_memo_hits") (fun () ->
      float_of_int (fst (Iias.fib_memo_stats vn)));
  counter t ~name:(prefix ^ ".fib_memo_lookups") (fun () ->
      float_of_int (snd (Iias.fib_memo_stats vn)));
  counter t ~name:(prefix ^ ".breaths") (fun () ->
      float_of_int (Vini_phys.Process.breaths (Iias.process vn)))

let watch_engine t ?(prefix = "engine") engine =
  counter t ~name:(prefix ^ ".fired") (fun () ->
      float_of_int (Engine.events_fired engine));
  counter t ~name:(prefix ^ ".cancelled") (fun () ->
      float_of_int (Engine.events_cancelled engine));
  gauge t ~name:(prefix ^ ".pending") (fun () ->
      float_of_int (Engine.pending engine));
  gauge t ~name:(prefix ^ ".max_pending") (fun () ->
      float_of_int (Engine.max_pending engine));
  histogram t ~name:(prefix ^ ".horizon_s") (Engine.horizon_hist engine);
  histogram t ~name:(prefix ^ ".callback_s") (Engine.callback_hist engine)

let watch_cpu t ~prefix cpu =
  histogram t ~name:(prefix ^ ".wake_s") (Vini_phys.Cpu.wake_latency_hist cpu)

let watch_pool t ~prefix pool =
  let open Vini_net in
  gauge t ~name:(prefix ^ ".available") (fun () ->
      float_of_int (Pool.available pool));
  gauge t ~name:(prefix ^ ".low_watermark") (fun () ->
      float_of_int (Pool.low_watermark pool));
  counter t ~name:(prefix ^ ".takes") (fun () ->
      float_of_int (Pool.takes pool));
  counter t ~name:(prefix ^ ".recycles") (fun () ->
      float_of_int (Pool.recycles pool));
  counter t ~name:(prefix ^ ".exhaustions") (fun () ->
      float_of_int (Pool.exhaustions pool));
  counter t ~name:(prefix ^ ".overfills") (fun () ->
      float_of_int (Pool.overfills pool))

let watch_ring t ~prefix ring =
  let open Vini_click in
  gauge t ~name:(prefix ^ ".length") (fun () ->
      float_of_int (Ring.length ring));
  gauge t ~name:(prefix ^ ".depth_hwm") (fun () ->
      float_of_int (Ring.depth_hwm ring));
  counter t ~name:(prefix ^ ".pushes") (fun () ->
      float_of_int (Ring.pushes ring));
  counter t ~name:(prefix ^ ".pops") (fun () -> float_of_int (Ring.pops ring));
  counter t ~name:(prefix ^ ".rejected") (fun () ->
      float_of_int (Ring.rejected ring))

let watch_process t ~prefix p =
  let open Vini_phys in
  counter t ~name:(prefix ^ ".packets") (fun () ->
      float_of_int (Process.packets_processed p));
  counter t ~name:(prefix ^ ".breaths") (fun () ->
      float_of_int (Process.breaths p));
  counter t ~name:(prefix ^ ".wakeups") (fun () ->
      float_of_int (Process.wakeups p));
  counter t ~name:(prefix ^ ".cpu_s") (fun () ->
      Time.to_sec_f (Process.cpu_time p));
  gauge t ~name:(prefix ^ ".breath_utilization") (fun () ->
      let b = Process.breaths p and burst = Process.burst p in
      if b = 0 then 0.0
      else
        float_of_int (Process.packets_processed p)
        /. float_of_int (b * burst))

let watch_profile t ?(prefix = "profile") p =
  let open Vini_sim in
  counter t ~name:(prefix ^ ".element_packets") (fun () ->
      float_of_int (Profile.element_packets_total p));
  counter t ~name:(prefix ^ ".element_cost_s") (fun () ->
      Profile.attributed_cost_s p)

let watch_tcp t ~prefix conn =
  counter t ~name:(prefix ^ ".retransmits") (fun () ->
      float_of_int (Vini_transport.Tcp.stats conn).Vini_transport.Tcp.retransmits);
  counter t ~name:(prefix ^ ".bytes_acked") (fun () ->
      float_of_int (Vini_transport.Tcp.stats conn).Vini_transport.Tcp.bytes_acked);
  histogram t ~name:(prefix ^ ".cwnd_bytes") (Vini_transport.Tcp.cwnd_hist conn)
