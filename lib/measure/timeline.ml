module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Profile = Vini_sim.Profile
module Histogram = Vini_std.Histogram
module Json = Vini_std.Json

let schema_version = "vini.timeline/1"

type kind = Gauge | Counter

type source = { s_name : string; s_kind : kind; s_read : unit -> float }

type t = {
  engine : Engine.t;
  interval : Time.t;
  mutable sources : source array; (* registration order *)
  mutable hists : (string * Histogram.t) list;
  (* One row per snapshot, newest first, as wide as [sources] was then. *)
  mutable rows_rev : (float * float array) list;
  mutable nsamples : int;
  mutable running : bool;
}

(* One snapshot: read every source into a fresh row.  This is the only
   place the sampler allocates (one float array plus a list cell per
   snapshot) — between boundaries it touches nothing, which the
   Gc.minor_words test asserts. *)
let sample_now t =
  let n = Array.length t.sources in
  let row = Array.make n 0.0 in
  for i = 0 to n - 1 do
    row.(i) <- (Array.unsafe_get t.sources i).s_read ()
  done;
  t.rows_rev <- (Time.to_sec_f (Engine.now t.engine), row) :: t.rows_rev;
  t.nsamples <- t.nsamples + 1

(* The sampling clock is the engine clock: ticks are scheduled at fixed
   multiples of the interval, so the snapshot instants — and therefore
   the whole document — are a function of the seed, never of wall time. *)
let rec tick t at_time =
  ignore
    (Engine.at t.engine at_time (fun () ->
         if t.running then begin
           sample_now t;
           tick t (Time.add at_time t.interval)
         end))

let create ~engine ?(interval = Time.sec 1) () =
  if Time.compare interval Time.zero <= 0 then
    invalid_arg "Timeline.create: interval must be positive";
  let t =
    {
      engine;
      interval;
      sources = [||];
      hists = [];
      rows_rev = [];
      nsamples = 0;
      running = true;
    }
  in
  tick t (Time.add (Engine.now engine) interval);
  t

let stop t = t.running <- false

let register t ~name ~kind read =
  if Array.exists (fun s -> s.s_name = name) t.sources then
    invalid_arg ("Timeline: duplicate series " ^ name);
  t.sources <-
    Array.append t.sources [| { s_name = name; s_kind = kind; s_read = read } |]

let gauge t ~name read = register t ~name ~kind:Gauge read
let counter t ~name read = register t ~name ~kind:Counter read

let histogram t ~name h =
  if List.mem_assoc name t.hists then
    invalid_arg ("Timeline: duplicate histogram " ^ name);
  t.hists <- t.hists @ [ (name, h) ]

(* ---- prewired sources (deterministic quantities only; host-clock data
   like callback times stays in the histogram registry — see DESIGN.md
   §16) ------------------------------------------------------------------- *)

let watch_engine t engine =
  counter t ~name:"engine.fired" (fun () ->
      float_of_int (Engine.events_fired engine));
  counter t ~name:"engine.inlined" (fun () ->
      float_of_int (Engine.events_inlined engine));
  counter t ~name:"engine.cancelled" (fun () ->
      float_of_int (Engine.events_cancelled engine));
  gauge t ~name:"engine.pending" (fun () ->
      float_of_int (Engine.pending engine));
  gauge t ~name:"engine.max_pending" (fun () ->
      float_of_int (Engine.max_pending engine));
  histogram t ~name:"engine.horizon_s" (Engine.horizon_hist engine);
  histogram t ~name:"engine.callback_s" (Engine.callback_hist engine)

let watch_profile t p =
  counter t ~name:"profile.element_packets" (fun () ->
      float_of_int (Profile.element_packets_total p));
  counter t ~name:"profile.element_cost_s" (fun () ->
      Profile.attributed_cost_s p)

let watch_pool t ~prefix pool =
  let open Vini_net in
  gauge t ~name:(prefix ^ ".available") (fun () ->
      float_of_int (Pool.available pool));
  gauge t ~name:(prefix ^ ".low_watermark") (fun () ->
      float_of_int (Pool.low_watermark pool));
  counter t ~name:(prefix ^ ".takes") (fun () ->
      float_of_int (Pool.takes pool));
  counter t ~name:(prefix ^ ".exhaustions") (fun () ->
      float_of_int (Pool.exhaustions pool))

let watch_ring t ~prefix ring =
  let open Vini_click in
  gauge t ~name:(prefix ^ ".length") (fun () ->
      float_of_int (Ring.length ring));
  gauge t ~name:(prefix ^ ".depth_hwm") (fun () ->
      float_of_int (Ring.depth_hwm ring));
  counter t ~name:(prefix ^ ".pushes") (fun () ->
      float_of_int (Ring.pushes ring));
  counter t ~name:(prefix ^ ".rejected") (fun () ->
      float_of_int (Ring.rejected ring))

let watch_process t ~prefix p =
  let open Vini_phys in
  counter t ~name:(prefix ^ ".packets") (fun () ->
      float_of_int (Process.packets_processed p));
  counter t ~name:(prefix ^ ".breaths") (fun () ->
      float_of_int (Process.breaths p));
  gauge t ~name:(prefix ^ ".breath_utilization") (fun () ->
      let b = Process.breaths p and burst = Process.burst p in
      if b = 0 then 0.0
      else
        float_of_int (Process.packets_processed p) /. float_of_int (b * burst));
  counter t ~name:(prefix ^ ".cpu_s") (fun () ->
      Time.to_sec_f (Process.cpu_time p))

let watch_overlay t iias =
  let open Vini_overlay in
  let sum f =
    let acc = ref 0 in
    for v = 0 to Iias.vnode_count iias - 1 do
      acc := !acc + f (Iias.vnode iias v)
    done;
    float_of_int !acc
  in
  counter t ~name:"overlay.forwarded" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.forwarded));
  counter t ~name:"overlay.delivered" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.delivered));
  counter t ~name:"overlay.no_route" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.no_route));
  counter t ~name:"overlay.fib_memo_hits" (fun () ->
      sum (fun vn -> fst (Iias.fib_memo_stats vn)));
  counter t ~name:"overlay.fib_memo_lookups" (fun () ->
      sum (fun vn -> snd (Iias.fib_memo_stats vn)));
  counter t ~name:"overlay.breaths" (fun () ->
      sum (fun vn -> Vini_phys.Process.breaths (Iias.process vn)))

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

let watch_cpu t ~prefix cpu =
  histogram t ~name:(prefix ^ ".wake_s") (Vini_phys.Cpu.wake_latency_hist cpu)

let watch_tcp t ~prefix conn =
  let module Tcp = Vini_transport.Tcp in
  counter t ~name:(prefix ^ ".retransmits") (fun () ->
      float_of_int (Tcp.stats conn).Tcp.retransmits);
  counter t ~name:(prefix ^ ".bytes_acked") (fun () ->
      float_of_int (Tcp.stats conn).Tcp.bytes_acked);
  histogram t ~name:(prefix ^ ".cwnd_bytes") (Tcp.cwnd_hist conn)

let watch_recorder t ~prefix recorder =
  let module Sspan = Vini_sim.Span in
  counter t ~name:(prefix ^ ".records") (fun () ->
      float_of_int (Sspan.length recorder + Sspan.overwritten recorder));
  counter t ~name:(prefix ^ ".overwritten") (fun () ->
      float_of_int (Sspan.overwritten recorder))

let register_breakdown t ~prefix trees =
  List.iter
    (fun (r : Span.row) ->
      histogram t
        ~name:
          (prefix ^ "." ^ Vini_sim.Span.attribution_name r.Span.attribution
         ^ "_s")
        r.Span.hist)
    (Span.breakdown trees)

(* ---- read side --------------------------------------------------------- *)

let nsamples t = t.nsamples

let series t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         ( s.s_name,
           s.s_kind,
           List.fold_left
             (fun pts (ts, row) ->
               if i < Array.length row then (ts, row.(i)) :: pts else pts)
             [] t.rows_rev ))
       t.sources)

let histograms t = t.hists

let document ?(extra = []) t =
  let width = Array.length t.sources in
  if List.exists (fun (_, row) -> Array.length row <> width) t.rows_rev then
    invalid_arg
      "Timeline.document: ragged rows (a series was registered after the \
       first snapshot)";
  let rows =
    List.rev_map
      (fun (ts, row) ->
        Json.Arr
          (Json.Num ts :: Array.to_list (Array.map (fun v -> Json.Num v) row)))
      t.rows_rev
  in
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("interval_s", Json.Num (Time.to_sec_f t.interval));
       ( "series",
         Json.Arr
           (Array.to_list (Array.map (fun s -> Json.Str s.s_name) t.sources)) );
       ("samples", Json.Arr rows);
     ]
    @ extra)
