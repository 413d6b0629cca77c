(** The runtime self-profiler: the engine watching itself.

    A {!t} collects two families of telemetry while installed:

    {ul
    {- {b Shard}: conservative-window count and width, events per
       window, per-shard events fired, cross-shard posts, event-queue and
       mailbox high-watermarks — fed by {!Shard} and {!Coordinator}, the
       parallel runtime; experiments on the single-queue {!Engine} leave
       them at zero — plus lane-0 barrier wait time (host clock,
       export-only).}
    {- {b Element attribution}: packets and sim-time CPU cost per Click
       element class, aggregated into collapsed root-to-leaf paths that
       load directly into a flamegraph.}}

    {b Gate discipline.}  Exactly like [Trace.span_gate]: {!gate} is a
    single global [bool ref], true iff a profile is {!install}ed.  Every
    instrumented hot path performs one load and test when profiling is
    off — nothing else.  Installing a profile never schedules events,
    draws random numbers, or changes costs the engine accounts for, so
    the event schedule (and every byte-compared export) is identical
    with the profiler on or off.

    {b Determinism.}  Every quantity except {!barrier_wait_hist} is
    derived from simulated time and event counts and is therefore
    byte-identical across hosts and {!Coordinator} domain counts.
    Barrier wait is wall-clock by nature; it is exposed for
    [vini.metrics/1]-style documents and must never enter a
    byte-compared artifact.

    {b Threading.}  Notes are single-threaded except under a
    multi-domain {!Coordinator}, where {!note_cross_post} writes only
    the caller shard's slot and {!note_mailbox_depth} maintains a
    monotone per-destination watermark that tolerates a lost update;
    histograms are only fed from lane 0. *)

type t

val create : unit -> t

val install : t -> unit
(** Make [t] the live profile and raise {!gate}.  At most one profile is
    live; installing replaces the previous one. *)

val uninstall : unit -> unit
(** Clear the live profile and drop {!gate}. *)

val current : unit -> t option

val gate : bool ref
(** The one-load-and-test gate.  Instrumented hot paths check
    [!Profile.gate] before doing any other profiling work. *)

val on : unit -> bool
(** [!gate], as a function — for call sites outside hot paths. *)

(** {2 Element-class registry}

    Class ids are process-global (minted at element creation, before any
    profile exists) so that element records can store an [int] and the
    instrumented push path never hashes a string. *)

val class_id : string -> int
(** Intern an element-class name. *)

val class_name : int -> string
(** Inverse of {!class_id}; raises [Invalid_argument] on an unknown id. *)

(** {2 Shard notes}

    All [note_*] functions are cheap no-ops when no profile is
    installed, but callers on hot paths must still check {!gate} first
    so the disabled path stays one load + test. *)

val note_window : width_s:float -> events:int -> unit
(** One conservative window completed: its granted width in simulated
    seconds and the events fired inside it. *)

val note_floor : width_s:float -> unit
(** Record the static lookahead floor (the smallest channel latency of
    the coordinator's lookahead matrix) the granted windows are measured
    against. *)

val note_shard_events : shard:int -> int -> unit
val note_cross_post : src:int -> unit
val note_queue_depth : shard:int -> int -> unit
(** Feed a shard's event-queue depth; the profile keeps the maximum. *)

val note_mailbox_depth : shard:int -> int -> unit
(** Feed a destination outbox depth; the profile keeps the maximum. *)

val note_barrier_wait : float -> unit
(** Host seconds lane 0 spent blocked at a window barrier. *)

(** {2 Element attribution notes} *)

val set_service_cost : float -> unit
(** Sim-time CPU seconds of the packet about to be handled, as budgeted
    by the CPU scheduler; attributed to the element path the packet
    traverses until {!clear_service_cost}. *)

val clear_service_cost : unit -> unit

val enter : int -> packets:int -> unit
(** Push an element-class frame ([packets] = packets in this
    invocation, >1 for a batch). *)

val leave : int -> unit
(** Pop the frame; if no child frame ran underneath, the current service
    cost is attributed to the collapsed path ending here. *)

(** {2 Read side} *)

val windows : t -> int
val window_hist : t -> Vini_std.Histogram.t
(** Granted conservative-window widths, simulated seconds. *)

val events_per_window : t -> Vini_std.Histogram.t
val lookahead_floor_s : t -> float

val barrier_wait_hist : t -> Vini_std.Histogram.t
(** Host seconds; export-only, never byte-compared (see module doc). *)

val shard_count : t -> int
val shard_events : t -> int array
val cross_posts : t -> int array
val queue_hwm : t -> int array
val mailbox_hwm : t -> int array

val cross_posts_total : t -> int
val queue_hwm_max : t -> int
val mailbox_hwm_max : t -> int

val element_packets_total : t -> int
val element_classes : t -> string list

val collapsed : t -> (string * float * int) list
(** Flamegraph-loadable collapsed stacks: [(";"-joined path, attributed
    sim seconds, packet count)] per root-to-leaf element path. *)

type element_row = {
  er_class : string;
  er_packets : int;
  er_self_s : float;  (** cost attributed with this class as the leaf *)
  er_total_s : float;  (** cost of every path this class appears on *)
}

val element_rows : t -> element_row list
(** Per-class summary, sorted by total cost descending. *)

val attributed_cost_s : t -> float

val reset : t -> unit
(** Zero all counters, histograms and paths (the class registry is
    global and survives). *)
