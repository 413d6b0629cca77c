type state = Pending | Fired | Cancelled

type handle = {
  time : Time.t;
  callback : unit -> unit;
  mutable state : state;
  live : int ref; (* the owning engine's live-event counter *)
}

(* Fills vacated queue slots (see {!Vini_std.Eventq.create}); never fires. *)
let dummy_handle =
  { time = Time.zero; callback = ignore; state = Cancelled; live = ref 0 }

type t = {
  mutable clock : Time.t;
  queue : handle Vini_std.Eventq.t;
  live : int ref; (* scheduled, not yet fired or cancelled *)
  root_rng : Vini_std.Rng.t;
  mutable cancelled_count : int;
  mutable fired : int;
  mutable inlined : int;
  (* Breath coalescing ({!at_inline}): inclusive bound up to which a
     tail-scheduled event may execute immediately instead of through the
     queue.  Maintained by the run loop (the run's [until] limit); -1
     outside a run loop, which disables inlining since times are >= 0. *)
  mutable inline_until : Time.t;
  (* Inline chains nest on the OCaml stack (each coalesced event is a
     nested call); cap the depth so a long back-to-back burst falls back
     to the queue once per [max_inline_depth] events instead of
     overflowing the stack. *)
  mutable inline_depth : int;
  mutable max_pending : int;
  (* Profiling (off by default, so the hot path pays one bool test):
     [horizon_hist] sees how far ahead of the clock each event is scheduled
     (simulated seconds, deterministic); [callback_hist] sees host CPU time
     per callback via [Sys.time] (resolution-limited, export-only). *)
  mutable profiling : bool;
  horizon_hist : Vini_std.Histogram.t;
  callback_hist : Vini_std.Histogram.t;
}

let create ?(seed = 42) () =
  let t =
    {
      clock = Time.zero;
      queue = Vini_std.Eventq.create ~dummy:dummy_handle ();
      live = ref 0;
      root_rng = Vini_std.Rng.create seed;
      cancelled_count = 0;
      fired = 0;
      inlined = 0;
      inline_until = -1;
      inline_depth = 0;
      max_pending = 0;
      profiling = false;
      horizon_hist = Vini_std.Histogram.create ();
      callback_hist = Vini_std.Histogram.create ();
    }
  in
  Trace.set_clock (fun () -> t.clock);
  t

let now t = t.clock
let rng t = t.root_rng

(* Cancelled handles stay queued (lazy delete) until popped; when they
   outnumber the live events, sweep them out so a cancel-heavy workload
   (retransmission timers, failure detectors) cannot bloat the queue. *)
let compact_threshold = 64

let maybe_compact t =
  let len = Vini_std.Eventq.length t.queue in
  if len > compact_threshold && len - !(t.live) > !(t.live) then
    t.cancelled_count <-
      t.cancelled_count
      + Vini_std.Eventq.compact t.queue ~dead:(fun h -> h.state = Cancelled)

let at t time callback =
  let time = Time.max time t.clock in
  let h = { time; callback; state = Pending; live = t.live } in
  Vini_std.Eventq.push t.queue ~key:time h;
  incr t.live;
  let depth = Vini_std.Eventq.length t.queue in
  if depth > t.max_pending then t.max_pending <- depth;
  if t.profiling then
    Vini_std.Histogram.add t.horizon_hist
      (Time.to_sec_f (Time.sub time t.clock));
  maybe_compact t;
  h

let after t delta callback =
  at t (Time.add t.clock (Time.max delta Time.zero)) callback

(* Breath coalescing.  An event scheduled at [time] from the tail of the
   currently-executing callback fires *next* — immediately after this
   callback returns, before anything else — exactly when (a) the run loop
   will keep going, [time <= inline_until], and (b) [time] is strictly
   below every queued key (an equal key has an older seq and drains
   first).  When both hold, running the callback here, with the clock
   advanced to [time], is indistinguishable from the queue route: same
   order, same clocks, same RNG draws, same [events_fired].  This is what
   lets a burst of back-to-back packets traverse CPU service and kernel
   hops as one queued event (a Snabb-style "breath") while staying
   byte-identical to the one-event-per-packet schedule.

   Only legal in tail position: any work the caller does after [at_inline]
   would be reordered before the event.  Inlining is skipped under
   profiling so the per-event histograms keep their meaning. *)
let max_inline_depth = 192

let at_inline t time callback =
  let time = Time.max time t.clock in
  if
    (not t.profiling)
    && t.inline_depth < max_inline_depth
    && Time.( <= ) time t.inline_until
    && time < Vini_std.Eventq.min_key t.queue
  then begin
    t.clock <- time;
    t.fired <- t.fired + 1;
    t.inlined <- t.inlined + 1;
    t.inline_depth <- t.inline_depth + 1;
    callback ();
    t.inline_depth <- t.inline_depth - 1
  end
  else ignore (at t time callback)

let after_inline t delta callback =
  at_inline t (Time.add t.clock (Time.max delta Time.zero)) callback

let events_inlined t = t.inlined

let cancel h =
  match h.state with
  | Pending ->
      h.state <- Cancelled;
      decr h.live
  | Fired | Cancelled -> ()

let is_cancelled h = h.state = Cancelled

let rec every t ?start ?jitter period f =
  let base = match start with Some s -> s | None -> Time.add t.clock period in
  let fire_at =
    match jitter with
    | None -> base
    | Some j when Time.compare j Time.zero > 0 ->
        Time.add base (Time.of_sec_f (Vini_std.Rng.float t.root_rng (Time.to_sec_f j)))
    | Some _ -> base
  in
  ignore
    (at t fire_at (fun () ->
         if f () then
           every t ~start:(Time.add fire_at period) ?jitter period f))

let fire t h =
  h.state <- Fired;
  decr t.live;
  t.clock <- Time.max t.clock h.time;
  t.fired <- t.fired + 1;
  if t.profiling then begin
    let t0 = Sys.time () in
    h.callback ();
    Vini_std.Histogram.add t.callback_hist (Sys.time () -. t0)
  end
  else h.callback ()

(* Pop and dispatch the head event; the queue must be non-empty.
   [Eventq.pop_exn] returns the handle itself, so nothing is allocated per
   event on the way to the callback. *)
let fire_next t =
  let h = Vini_std.Eventq.pop_exn t.queue in
  match h.state with
  | Cancelled -> t.cancelled_count <- t.cancelled_count + 1
  | Fired -> assert false
  | Pending -> fire t h

let step t =
  if Vini_std.Eventq.is_empty t.queue then false
  else begin
    fire_next t;
    true
  end

(* The loop tests [min_key] against the limit, one array load and no
   option per event: an empty queue reports [max_int], which no real key
   reaches (keys clamp at [max_int/2]), so [k <> max_int] also proves the
   queue non-empty for [fire_next]. *)
let run ?until t =
  let limit = match until with Some l -> l | None -> Time.max_value in
  t.inline_depth <- 0;
  t.inline_until <- limit;
  let k = ref (Vini_std.Eventq.min_key t.queue) in
  while !k <> max_int && !k <= limit do
    fire_next t;
    k := Vini_std.Eventq.min_key t.queue
  done;
  t.inline_until <- -1;
  match until with
  | Some limit when Time.compare limit t.clock > 0 -> t.clock <- limit
  | Some _ | None -> ()

let pending t = !(t.live)
let events_fired t = t.fired
let events_cancelled t = t.cancelled_count
let max_pending t = t.max_pending

let set_profiling t on = t.profiling <- on
let horizon_hist t = t.horizon_hist
let callback_hist t = t.callback_hist
