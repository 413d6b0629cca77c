module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Rng = Vini_std.Rng

type contention =
  | Dedicated
  | Shared of { active_sampler : Rng.t -> int }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  speed_ghz : float;
  contention : contention;
  wake_hist : Vini_std.Histogram.t;
}

type state = Idle | Waking | Busy

type proc = {
  cpu : t;
  slice : Slice.t;
  name : string;
  next_cost : unit -> Time.t; (* negative: no pending work *)
  exec : unit -> unit;
  mutable state : state;
  mutable fraction : float;
  mutable budget : Time.t;
  mutable cpu_time : Time.t;
  mutable wakeups : int;
  mutable last_start : Time.t; (* wall-clock start of the latest exec *)
  (* The service slice in flight: when [step] costed it and what it
     costs.  [service] is the one preallocated event callback that serves
     it; see [step] for why one of each per proc suffices. *)
  mutable start : Time.t;
  mutable cost : Time.t;
  mutable service : unit -> unit;
}

let create ~engine ~rng ~speed_ghz ~contention =
  if speed_ghz <= 0.0 then invalid_arg "Cpu.create: speed must be positive";
  { engine; rng; speed_ghz; contention;
    wake_hist = Vini_std.Histogram.create () }

let speed_ghz t = t.speed_ghz

let scale_cost t c =
  (* A reference-speed node scales by exactly 1; skip the float round-trip
     (it runs once per packet on the kernel and click paths). *)
  if t.speed_ghz = Calibration.reference_ghz then c
  else Time.of_sec_f (Time.to_sec_f c *. Calibration.reference_ghz /. t.speed_ghz)

let wake_latency p =
  let rng = p.cpu.rng in
  match p.cpu.contention with
  | Dedicated ->
      let lo, hi = Calibration.wake_dedicated_us in
      Time.of_sec_f (Rng.uniform rng lo hi *. 1e-6)
  | Shared _ when p.slice.Slice.realtime ->
      let lo, hi = Calibration.wake_realtime_us in
      Time.of_sec_f (Rng.uniform rng lo hi *. 1e-6)
  | Shared _ ->
      (* Three-part mixture, milliseconds; see Calibration. *)
      let u = Rng.float rng 1.0 in
      let tail_w = Calibration.wake_shared_tail_weight in
      let mid_w = Calibration.wake_shared_mid_weight in
      let ms =
        if u < tail_w then
          let lo, hi = Calibration.wake_shared_tail in
          Rng.uniform rng lo hi
        else if u < tail_w +. mid_w then
          Rng.exponential rng Calibration.wake_shared_mid_mean_ms
        else
          let lo, hi = Calibration.wake_shared_core in
          Rng.uniform rng lo hi
      in
      Time.of_sec_f (ms *. 1e-3)

let sample_fraction p =
  match p.cpu.contention with
  | Dedicated -> 1.0
  | Shared { active_sampler } ->
      let n = active_sampler p.cpu.rng in
      let fair = 1.0 /. float_of_int (1 + n) in
      Float.min 1.0 (Float.max p.slice.Slice.reservation fair)

let dilate cost fraction =
  (* Dedicated CPUs (and uncontended shared ones) run at fraction 1.0;
     the identity skips a float round-trip per service event. *)
  if fraction = 1.0 then cost
  else Time.of_sec_f (Time.to_sec_f cost /. fraction)

let rec episode p =
  p.fraction <- sample_fraction p;
  p.budget <- Calibration.burst_cpu_budget;
  step p

(* One pending service per proc: [state] stays [Busy] from the wake
   event until [step] finds no work, so [kick] schedules nothing while a
   service event is pending, and [step] runs only from the wake event or
   from the end of [serve] — after the pending service has fired.  Hence
   [start]/[cost] are never overwritten before [serve] reads them, and
   [service] can be one closure allocated at spawn instead of one per
   packet. *)
and step p =
  let cost = p.next_cost () in
  if cost < 0 then p.state <- Idle
  else begin
    p.start <- Engine.now p.cpu.engine;
    p.cost <- cost;
    (* Tail position: [step] is the last action of the wake event and of
       each service event, so the next service may run as part of the same
       breath when nothing else is due first. *)
    Engine.after_inline p.cpu.engine (dilate cost p.fraction) p.service
  end

and serve p =
  let cost = p.cost in
  p.last_start <- p.start;
  p.exec ();
  p.cpu_time <- Time.add p.cpu_time cost;
  p.budget <- Time.sub p.budget cost;
  if Time.compare p.budget Time.zero <= 0 then episode p else step p

let spawn t ~slice ~name ~next_cost ~exec =
  let p =
    {
      cpu = t;
      slice;
      name;
      next_cost;
      exec;
      state = Idle;
      fraction = 1.0;
      budget = Time.zero;
      cpu_time = Time.zero;
      wakeups = 0;
      last_start = Time.zero;
      start = Time.zero;
      cost = Time.zero;
      service = ignore;
    }
  in
  p.service <- (fun () -> serve p);
  p

module Trace = Vini_sim.Trace

let kick p =
  match p.state with
  | Waking | Busy -> ()
  | Idle ->
      p.state <- Waking;
      let latency = wake_latency p in
      let latency_s = Time.to_sec_f latency in
      Vini_std.Histogram.add p.cpu.wake_hist latency_s;
      if Trace.on Trace.Category.Sched_latency then
        Trace.emit ~component:("cpu." ^ p.name)
          (Trace.Sched_latency { seconds = latency_s });
      ignore
        (Engine.after p.cpu.engine latency (fun () ->
             p.state <- Busy;
             p.wakeups <- p.wakeups + 1;
             episode p))

let wake_latency_hist t = t.wake_hist
let last_service p = p.last_start
let cpu_time p = p.cpu_time
let wakeups p = p.wakeups
