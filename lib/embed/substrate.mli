(** Residual-capacity model of the physical substrate.

    Tracks, per physical node, a CPU capacity in {e reference cores}
    (node speed divided by {!Vini_phys.Calibration.reference_ghz}) and,
    per physical link, a bandwidth capacity in bits/s, together with the
    amounts currently reserved by admitted slices.  The admission-control
    half of {!Embed}: solvers read residuals here, {!Embed.commit} /
    {!Embed.withdraw} move them as experiments deploy and tear down.

    A substrate can be a bare {!Vini_topo.Graph.t} ([of_graph]: every
    node up, capacity from an optional profile) or a live
    {!Vini_phys.Underlay.t} ([of_underlay]: capacities from the actual
    {!Vini_phys.Cpu} clocks and {!Vini_phys.Plink.bandwidth_bps}, and
    node/link liveness consulted at solve time — a crashed machine is
    never a placement candidate). *)

type t

val of_graph : ?node_capacity:(int -> float) -> Vini_topo.Graph.t -> t
(** Standalone substrate (CLI, benches, tests).  Default node capacity:
    1.0 reference core each; link capacities from the graph's
    [bandwidth_bps].  Every node and link reports up. *)

val of_underlay : Vini_phys.Underlay.t -> t
(** Live substrate: node capacity = node clock /
    {!Vini_phys.Calibration.reference_ghz}, link capacity =
    {!Vini_phys.Plink.bandwidth_bps}, liveness delegated to the underlay
    ({!Vini_phys.Underlay.node_is_up} / [link_is_up]). *)

val graph : t -> Vini_topo.Graph.t

(** {2 Capacity accounting}

    Reservations clamp at zero on release; releasing more than was
    reserved is a programming error but only loses accounting, never
    raises. *)

val node_capacity : t -> int -> float
val node_used : t -> int -> float
val node_residual : t -> int -> float
val link_capacity : t -> int -> int -> float
val link_used : t -> int -> int -> float
val link_residual : t -> int -> int -> float
(** Link accessors accept either endpoint order.
    @raise Not_found for non-adjacent pairs. *)

val node_up : t -> int -> bool
val link_up : t -> int -> int -> bool

val reserve_node : t -> int -> float -> unit
val release_node : t -> int -> float -> unit

val reserve_path : t -> int list -> float -> unit
(** Reserve [bw] on every link along a physical node path. *)

val release_path : t -> int list -> float -> unit

(** {2 Admission bookkeeping} *)

val note_admitted : t -> unit
val note_rejected : t -> unit
val admitted : t -> int
val rejected : t -> int

val acceptance_rate : t -> float
(** admitted / (admitted + rejected); 1.0 before any decision. *)

val max_node_stress : t -> float
(** Largest per-node utilisation fraction (used/capacity) across the
    substrate — the balance figure the background defragmenter watches
    and migration-quality records report. *)

val residual_histogram : t -> (float * float * int) array
(** Histogram of per-node residual CPU {e fractions} (residual/capacity)
    over 10 equal-width bins of [0,1]: the
    residual-capacity distribution exported in [vini.embed/1]. *)
