(** Background defragmentation of the substrate.

    Slice churn — deploys, undeploys, crash-driven re-embeds — skews the
    substrate's load: a few machines end up near saturation while others
    idle.  A defragmenter attached to a {!Vini.t} periodically inspects
    per-node stress ({!Vini_embed.Substrate.max_node_stress}) and, when
    the hottest machine exceeds its threshold, starts one
    make-before-break live migration ({!Vini.migrate}) to lift a virtual
    node off it — the online solver's congestion pricing chooses the
    destination, so a move is only started when the planner prices an
    alternative host strictly cheaper.  Each settled move's stretch and
    balance deltas land in {!Vini.migrations} like any other planned
    move.

    Sweeps that find no profitable move back off exponentially
    ([period * 2^streak]) and after [budget] consecutive fruitless
    sweeps the defragmenter gives up for good — it never thrashes a
    substrate it cannot improve.  All scheduling is deterministic: sweeps
    draw nothing from the RNG, candidates are examined in a fixed order
    (hottest machine first, instances in deployment order, virtual nodes
    ascending), and one sweep starts at most one move. *)

type t

val attach :
  ?period:Vini_sim.Time.t ->
  ?threshold:float ->
  ?budget:int ->
  Vini.t ->
  t
(** Attach a defragmenter and schedule its first sweep one [period]
    (default 5 s) from now.  [threshold] (default 0.75) is the
    utilisation fraction above which a machine is considered stressed;
    each consecutive fruitless sweep doubles the sweep period; [budget]
    (default 3) is the fruitless-sweep count after which the
    defragmenter gives up.
    @raise Invalid_argument for [threshold] outside (0,1) or
    [budget] < 1. *)

val sweeps : t -> int
val moves_started : t -> int

val gave_up : t -> bool
(** The give-up budget was exhausted; no further sweeps will run. *)
