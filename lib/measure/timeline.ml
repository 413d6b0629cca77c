module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Profile = Vini_sim.Profile

let schema_version = "vini.timeline/1"

type source = { s_name : string; s_read : unit -> float }

type t = {
  engine : Engine.t;
  interval : Time.t;
  mutable sources_rev : source list; (* registration order, reversed *)
  mutable frozen : source array; (* fixed at the first snapshot *)
  mutable is_frozen : bool;
  mutable rows_rev : (float * float array) list;
  mutable nsamples : int;
  mutable running : bool;
}

let freeze t =
  if not t.is_frozen then begin
    t.frozen <- Array.of_list (List.rev t.sources_rev);
    t.is_frozen <- true
  end

(* One snapshot: read every source into a fresh row.  This is the only
   place the sampler allocates (one float array plus a list cell per
   snapshot) — between boundaries the timeline touches nothing, which
   the Gc.minor_words test asserts. *)
let sample_now t =
  freeze t;
  let n = Array.length t.frozen in
  let row = Array.make n 0.0 in
  for i = 0 to n - 1 do
    row.(i) <- (Array.unsafe_get t.frozen i).s_read ()
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
      sources_rev = [];
      frozen = [||];
      is_frozen = false;
      rows_rev = [];
      nsamples = 0;
      running = true;
    }
  in
  tick t (Time.add (Engine.now engine) interval);
  t

let stop t = t.running <- false

let register t ~name read =
  if t.is_frozen then
    invalid_arg "Timeline.register: sampling already started";
  if List.exists (fun s -> s.s_name = name) t.sources_rev then
    invalid_arg ("Timeline.register: duplicate series " ^ name);
  t.sources_rev <- { s_name = name; s_read = read } :: t.sources_rev

(* ---- prewired sources (deterministic quantities only; host-clock data
   like callback times must stay out — see DESIGN.md §16) -------------- *)

let watch_engine t engine =
  register t ~name:"engine.fired" (fun () ->
      float_of_int (Engine.events_fired engine));
  register t ~name:"engine.inlined" (fun () ->
      float_of_int (Engine.events_inlined engine));
  register t ~name:"engine.cancelled" (fun () ->
      float_of_int (Engine.events_cancelled engine));
  register t ~name:"engine.pending" (fun () ->
      float_of_int (Engine.pending engine));
  register t ~name:"engine.max_pending" (fun () ->
      float_of_int (Engine.max_pending engine))

let watch_profile t p =
  register t ~name:"profile.element_packets" (fun () ->
      float_of_int (Profile.element_packets_total p));
  register t ~name:"profile.element_cost_s" (fun () ->
      Profile.attributed_cost_s p)

let watch_pool t ~prefix pool =
  let open Vini_net in
  register t ~name:(prefix ^ ".available") (fun () ->
      float_of_int (Pool.available pool));
  register t ~name:(prefix ^ ".low_watermark") (fun () ->
      float_of_int (Pool.low_watermark pool));
  register t ~name:(prefix ^ ".takes") (fun () ->
      float_of_int (Pool.takes pool));
  register t ~name:(prefix ^ ".exhaustions") (fun () ->
      float_of_int (Pool.exhaustions pool))

let watch_ring t ~prefix ring =
  let open Vini_click in
  register t ~name:(prefix ^ ".length") (fun () ->
      float_of_int (Ring.length ring));
  register t ~name:(prefix ^ ".depth_hwm") (fun () ->
      float_of_int (Ring.depth_hwm ring));
  register t ~name:(prefix ^ ".pushes") (fun () ->
      float_of_int (Ring.pushes ring));
  register t ~name:(prefix ^ ".rejected") (fun () ->
      float_of_int (Ring.rejected ring))

let watch_process t ~prefix p =
  let open Vini_phys in
  register t ~name:(prefix ^ ".packets") (fun () ->
      float_of_int (Process.packets_processed p));
  register t ~name:(prefix ^ ".breaths") (fun () ->
      float_of_int (Process.breaths p));
  register t ~name:(prefix ^ ".breath_utilization") (fun () ->
      let b = Process.breaths p and burst = Process.burst p in
      if b = 0 then 0.0
      else
        float_of_int (Process.packets_processed p) /. float_of_int (b * burst));
  register t ~name:(prefix ^ ".cpu_s") (fun () ->
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
  register t ~name:"overlay.forwarded" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.forwarded));
  register t ~name:"overlay.delivered" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.delivered));
  register t ~name:"overlay.no_route" (fun () ->
      sum (fun vn -> (Iias.stats vn).Iias.no_route));
  register t ~name:"overlay.fib_memo_hits" (fun () ->
      sum (fun vn -> fst (Iias.fib_memo_stats vn)));
  register t ~name:"overlay.fib_memo_lookups" (fun () ->
      sum (fun vn -> snd (Iias.fib_memo_stats vn)));
  register t ~name:"overlay.breaths" (fun () ->
      sum (fun vn -> Vini_phys.Process.breaths (Iias.process vn)))

(* ---- read side --------------------------------------------------------- *)

let nsamples t = t.nsamples

let samples t =
  freeze t;
  List.rev_map (fun (ts, row) -> (ts, Array.copy row)) t.rows_rev

let counter_series t =
  freeze t;
  Array.to_list
    (Array.mapi
       (fun i s ->
         (s.s_name, List.rev_map (fun (ts, row) -> (ts, row.(i))) t.rows_rev))
       t.frozen)

let document ?(extra = []) t =
  freeze t;
  let series =
    Array.to_list (Array.map (fun s -> Export.Str s.s_name) t.frozen)
  in
  let rows =
    List.rev_map
      (fun (ts, row) ->
        Export.Arr
          (Export.Num ts
          :: Array.to_list (Array.map (fun v -> Export.Num v) row)))
      t.rows_rev
  in
  Export.Obj
    ([
       ("schema", Export.Str schema_version);
       ("interval_s", Export.Num (Time.to_sec_f t.interval));
       ("series", Export.Arr series);
       ("samples", Export.Arr rows);
     ]
    @ extra)
