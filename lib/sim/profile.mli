(** The runtime self-profiler: element attribution for the data plane.

    A {!t} collects, while installed, packets and sim-time CPU cost per
    Click element class, aggregated into collapsed root-to-leaf paths
    that load directly into a flamegraph.

    {b Gate discipline.}  As with [Span.on], {!gate} is a
    single global [bool ref], true iff a profile is {!install}ed.  Every
    instrumented hot path performs one load and test when profiling is
    off — nothing else.  Installing a profile never schedules events,
    draws random numbers, or changes costs the engine accounts for, so
    the event schedule (and every byte-compared export) is identical
    with the profiler on or off.

    {b Determinism.}  Every quantity is derived from simulated time and
    packet counts and is therefore byte-identical across hosts. *)

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

(** {2 Element-class registry}

    Class ids are process-global (minted at element creation, before any
    profile exists) so that element records can store an [int] and the
    instrumented push path never hashes a string. *)

val class_id : string -> int
(** Intern an element-class name. *)

(** {2 Element attribution notes}

    All notes are cheap no-ops when no profile is installed, but callers
    on hot paths must still check {!gate} first so the disabled path
    stays one load + test. *)

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

val element_packets_total : t -> int

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
