(** Hybrid packet/flow fidelity: the fluid background-load model
    (DESIGN.md §17).

    Packet-level simulation of every opt-in user's traffic caps scenario
    size; a million users sending real packets is neither affordable nor
    necessary when the question under study concerns a handful of slices.
    Following the fluid-model tradition, background demand from the
    {!Workload} stream is folded into per-link utilisation, queue
    occupancy, and loss {e pressure} on a coarse tick, while the slices
    under study keep full packet fidelity — decoupling fidelity from
    scale.

    Per tick, on every directed substrate link: due flows are pulled from
    the lazy stream and routed along the underlay's current forwarding
    table; their wire bytes join the link's fluid backlog; the link
    drains at capacity; backlog beyond the queue limit is dropped.
    Offered load is conserved exactly: [offered = drained + dropped +
    backlog] at all times (see the QCheck property).

    The tick is an unjittered {!Vini_sim.Engine.every} event on the
    experiment's engine, so each fold lands at a fixed multiple of the
    tick and every packet event after it sees the new pressure; the
    schedule is a function of the seed alone.  Under {!Hybrid} fidelity
    the per-link queue delay and loss pressure are pushed into the packet
    path via {!Vini_phys.Plink.set_background}; under {!Flow} the model
    only accounts (useful for pure capacity studies); {!Packet} disables
    it. *)

type fidelity = Packet | Flow | Hybrid

val fidelity_of_string : string -> (fidelity, string) result
val fidelity_to_string : fidelity -> string

type config = {
  fidelity : fidelity;
  tick : Vini_sim.Time.t;  (** fold period; default {!default_tick} *)
  workload : Workload.params;
}

val default_tick : Vini_sim.Time.t
(** 100 ms — coarse enough to amortise the fold, fine enough that
    background pressure tracks demand shifts. *)

type link_load = {
  util : float;  (** drained / capacity over the last tick, in [0,1] *)
  queue_delay : Vini_sim.Time.t;  (** backlog / capacity *)
  loss : float;  (** drop pressure over the last tick, in [0,1] *)
  offered_bps : float;  (** demand arriving during the last tick *)
}

type totals = {
  flows : int;  (** flows pulled from the stream so far *)
  offered_bytes : float;
      (** link-level offered load: each flow's wire bytes counted once
          per link traversed (blackholed flows count once) — the unit in
          which conservation holds *)
  drained_bytes : float;
  dropped_bytes : float;
  backlog_bytes : float;  (** current fluid queue occupancy, all links *)
}

type t

val install :
  under:Vini_phys.Underlay.t -> config -> t
(** Create the model and schedule its recurring tick on the
    underlay's engine, starting one tick from now.  Each fold walks
    every due flow slot by slot along the underlay's forwarding table
    ({!Vini_phys.Underlay.forward_slot}), the one packets read, so chaos
    events redirect background load like they redirect packets; a flow
    that cannot reach its destination is dropped whole at the edge.
    @raise Invalid_argument if the tick is not positive or the workload
    parameters fail {!Workload.validate}.  With [fidelity = Packet] no
    tick is scheduled and the model stays inert. *)

val totals : t -> totals

val link_load :
  t -> a:Vini_topo.Graph.node_id -> b:Vini_topo.Graph.node_id -> link_load
(** Load on the directed link [a -> b] as of the last tick.
    @raise Not_found if the nodes are not adjacent. *)

val ticks : t -> int

val to_json : t -> Vini_std.Json.t
(** The fluid section of the [vini.scenario/1] document: totals plus the
    per-directed-link load table in (a, b) order — deterministic. *)
