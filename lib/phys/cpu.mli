(** The node CPU scheduler model.

    This is where PlanetLab's shared-machine behaviour — the phenomenon the
    PL-VINI extensions exist to tame — is simulated.  A process alternates
    between [Idle], waiting to be scheduled, and executing work items.
    Two quantities are sampled per scheduling episode from the contention
    model:

    - the {e wake-up latency} between becoming runnable and first running
      (heavy-tailed under default fair share; tiny with real-time
      priority, §4.1.2), and
    - the {e CPU fraction} the process receives while it stays runnable
      (1/(1+n) against n runnable competitors, floored by the slice's
      reservation).

    Work items (packets) are billed their CPU cost dilated by the inverse
    fraction, so capacity, latency, and the socket-buffer overflows of
    Figure 6 all emerge from one mechanism. *)

type t
type proc

type contention =
  | Dedicated
  (** A lab machine running only the experiment (DETER). *)
  | Shared of { active_sampler : Vini_std.Rng.t -> int }
  (** A PlanetLab node with competing slices; the sampler draws the number
      of runnable competitors for an episode. *)

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  speed_ghz:float ->
  contention:contention ->
  t
(** One scheduler per physical node. *)

val speed_ghz : t -> float

val scale_cost : t -> Vini_sim.Time.t -> Vini_sim.Time.t
(** Scale a CPU cost quoted at the reference clock to this node's clock. *)

val spawn :
  t ->
  slice:Slice.t ->
  name:string ->
  next_cost:(unit -> Vini_sim.Time.t) ->
  exec:(unit -> unit) ->
  proc
(** [next_cost] quotes the CPU cost of the next pending work item (already
    scaled to this node; use {!scale_cost}), or returns a negative time
    when there is no pending work, which idles the process until the next
    {!kick}.  [exec] performs and dequeues the item, once its dilated
    service time has elapsed; the scheduler calls it only after
    [next_cost] found work, and at most one service is pending per
    process. *)

val kick : proc -> unit
(** Tell the scheduler the process has (new) pending work.  Idempotent
    while the process is already awake or waking. *)

val wake_latency_hist : t -> Vini_std.Histogram.t
(** Distribution of sampled wake-up latencies (simulated seconds) across
    every process on this scheduler — the §4.1.2 scheduling-latency story
    as a p50/p95/p99.  Each {!kick} from idle also emits a [Sched_latency]
    trace event when that category is live. *)

val cpu_time : proc -> Vini_sim.Time.t
(** Total CPU time consumed so far (the [ps TIME] column of §5.1). *)

val last_service : proc -> Vini_sim.Time.t
(** Wall-clock time the most recent [exec] began its (dilated) service
    slice — i.e. when the work item it just completed left the run queue.
    [Process] uses it to split a packet's wait into queueing
    vs cpu_service for the flight recorder ({!Vini_sim.Span}). *)

val wakeups : proc -> int
