(** The VINI infrastructure: a fixed physical substrate hosting multiple
    simultaneous virtual-network experiments (§3.4).

    One [Vini.t] owns the underlay (physical nodes, links, underlying IP
    routing).  Each deployed experiment gets its own slice, its own IIAS
    overlay with a distinct tunnel port, and a subscription to underlay
    topology-change upcalls (§6.1) so it can react to — or at least know
    about — physical failures the underlay would otherwise mask. *)

type t
type instance

type migration_kind =
  | Planned
      (** make-before-break live move ({!migrate}): zero downtime, the
          cutover loss is measured *)
  | Crash_driven
      (** reactive re-embed after a machine death: downtime is the
          death-to-revival interval, cutover loss is not meaningful *)

type migration = {
  m_vnode : int;
  m_from : int;
  m_to : int;
  m_kind : migration_kind;
  m_down_at : Vini_sim.Time.t;
      (** when the hosting machine died; equals [m_restored_at] (the flip
          instant) for planned moves, whose downtime is zero *)
  m_restored_at : Vini_sim.Time.t;  (** when the replacement took over *)
  m_cutover_loss : int option;
      (** planned moves only: packets lost across the cutover window
          (drop forensics plus packets retired with the old process);
          zero in steady state *)
  m_stretch_before : float;  (** {!Vini_embed.Embed.stretch} pre-move *)
  m_stretch_after : float;
  m_balance_before : float;
      (** {!Vini_embed.Substrate.max_node_stress} pre-move *)
  m_balance_after : float;
}

val create :
  engine:Vini_sim.Engine.t ->
  graph:Vini_topo.Graph.t ->
  ?profile:(Vini_topo.Graph.node_id -> Vini_phys.Underlay.node_profile) ->
  unit ->
  t
(** After a machine death, an auto-placed experiment waits a 500 ms
    grace period before it re-embeds the displaced virtual node
    elsewhere — a machine that reboots within it is simply restarted in
    place by the supervisor.  A death whose own timeline
    schedules a later {!Experiment.Restore_pnode} for the same virtual
    node is planned downtime and never triggers a re-embed. *)

val engine : t -> Vini_sim.Engine.t
val underlay : t -> Vini_phys.Underlay.t

val run : ?until:Vini_sim.Time.t -> t -> unit
(** Advance the whole deployment ({!Vini_sim.Engine.run} on the owned
    engine, one domain).  A seeded run produces byte-identical reports and
    span exports every time, which the [exports] CI job checks
    across separate processes. *)

val substrate : t -> Vini_embed.Substrate.t
(** The shared residual-capacity account all auto-placed experiments
    reserve from. *)

val deploy : t -> Experiment.spec -> instance
(** Validate and instantiate an experiment (not yet started).  An
    [Experiment.Auto] placement is solved here against the substrate's
    residual capacities and its reservation committed.
    @raise Invalid_argument when the spec fails validation, a physical
    node would host two virtual nodes of the same experiment, or an
    auto placement is rejected. *)

val undeploy : t -> instance -> unit
(** Tear the experiment down from the embedding layer's point of view:
    release its substrate reservation (if auto-placed) and stop routing
    upcalls to it. *)

val start : instance -> unit
(** Start the overlay's routing and schedule the spec's events relative
    to this instant.  When the spec contains chaos actions
    ({!Experiment.is_chaos_action}), supervised crash recovery is enabled
    automatically with the default policy; call
    [Iias.enable_supervision ~policy] on {!iias} before [start] to choose
    a different one (enabling twice is a no-op).  When the spec declares
    a scenario with flow or hybrid fidelity, the fluid background-load
    model is installed on the underlay and its tick starts
    here — see {!fluid}. *)

val iias : instance -> Vini_overlay.Iias.t

val fluid : instance -> Vini_scenario.Fluid.t option
(** The background fluid model, when the spec declared a scenario with
    non-packet fidelity and the instance has started. *)

val instances : t -> instance list

val on_upcall : instance -> (Vini_phys.Underlay.event -> unit) -> unit
(** Subscribe the experiment to physical-topology alarms. *)

val upcalls_delivered : instance -> int

val epoch : instance -> Vini_sim.Time.t
(** The start instant (events are relative to it). *)

(** {2 Embedding introspection}

    Auto-placed instances know their mapping and its history.  When the
    machine hosting a virtual node dies and stays down past the
    re-embed delay, the embedder is consulted for a feasible surviving
    host (all other virtual nodes pinned in place); on success the
    virtual node migrates there ({!Vini_overlay.Iias.migrate_vnode}) and
    the move is recorded with its downtime; on rejection the old
    reservation is restored and the failure recorded. *)

val mapping : instance -> Vini_embed.Embed.mapping option
(** Current solved mapping ([None] for pinned placements); updated by
    migrations. *)

val placement_request : instance -> Vini_embed.Request.t option
val migrations : instance -> migration list
val reembed_failures : instance -> (int * Vini_embed.Embed.rejection) list

val parked : instance -> int list
(** Virtual nodes whose re-embed after a machine death was rejected:
    their share of the reservation is released exactly (the survivors'
    share stays committed) and they wait, unhosted, until their machine
    returns ({!Experiment.Restore_pnode}) and they are re-committed. *)

(** {2 Planned live migration (make-before-break)}

    The proactive counterpart to crash-driven re-embedding: move a
    virtual node {e before} breaking anything.  {!migrate} plans the move
    with the online solver's congestion pricing (or takes an explicit
    [?target]), double-provisions CPU and incident-path bandwidth for the
    new placement alongside the old, pre-clones the Click process on the
    target ({!Vini_overlay.Iias.begin_migration}), flips ingress/egress
    atomically in one engine event, drains in-flight packets
    through the old process, then retires it and releases the old share.
    In steady state the cutover loses zero packets; the measured loss,
    path-stretch delta and substrate-balance delta are recorded in
    {!migrations}.  A move that cannot flip (target died meanwhile) rolls
    back cleanly: the old process never stopped serving and the new share
    is withdrawn, leaving substrate accounts exactly as before. *)

val migrate :
  ?target:int ->
  ?drain:Vini_sim.Time.t ->
  instance ->
  vnode:int ->
  (bool, Vini_embed.Embed.rejection) result
(** Start a make-before-break move of [vnode].  Without [?target] the
    online solver picks the cheapest feasible host under congestion
    pricing (pinned placements require an explicit target); [?drain]
    (default 1 s) is how long in-flight packets may keep arriving at the
    old process after the flip.  [Ok true]: the move is in flight and
    will commit (or roll back) asynchronously.  [Ok false]: the current
    host is already the best choice — nothing to do.  [Error r]: the
    solver rejected every alternative (capacity, partition, invalid
    explicit target).
    @raise Invalid_argument if the instance is not started, the vnode is
    parked, or a migration of it is already in flight. *)

val pending_migrations : instance -> int
(** Number of in-flight planned moves (begun, not yet settled). *)

val migration_failures : instance -> (int * string) list
(** Planned moves that were rejected at planning time (timeline
    [migrate] events) or rolled back before the flip, with the reason. *)
