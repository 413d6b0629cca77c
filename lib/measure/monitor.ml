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

let watch_engine t engine =
  counter t ~name:"engine.fired" (fun () ->
      float_of_int (Engine.events_fired engine));
  counter t ~name:"engine.cancelled" (fun () ->
      float_of_int (Engine.events_cancelled engine));
  gauge t ~name:"engine.pending" (fun () ->
      float_of_int (Engine.pending engine));
  gauge t ~name:"engine.max_pending" (fun () ->
      float_of_int (Engine.max_pending engine));
  histogram t ~name:"engine.horizon_s" (Engine.horizon_hist engine);
  histogram t ~name:"engine.callback_s" (Engine.callback_hist engine)

let watch_cpu t ~prefix cpu =
  histogram t ~name:(prefix ^ ".wake_s") (Vini_phys.Cpu.wake_latency_hist cpu)

let watch_tcp t ~prefix conn =
  counter t ~name:(prefix ^ ".retransmits") (fun () ->
      float_of_int (Vini_transport.Tcp.stats conn).Vini_transport.Tcp.retransmits);
  counter t ~name:(prefix ^ ".bytes_acked") (fun () ->
      float_of_int (Vini_transport.Tcp.stats conn).Vini_transport.Tcp.bytes_acked);
  histogram t ~name:(prefix ^ ".cwnd_bytes") (Vini_transport.Tcp.cwnd_hist conn)
