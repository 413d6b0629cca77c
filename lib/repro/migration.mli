(** Migration, end to end — crash-driven and planned.

    Two scenarios over the same scaffolding (a six-node virtual ring
    auto-placed on the Abilene substrate, pings across the ring
    throughout):

    - {!run} — {b crash-driven}: mid-run a hosting machine is crashed
      and {e stays down} past the re-embed grace period, so the
      embedding layer re-solves with the survivors pinned and rebuilds
      the displaced virtual node on a feasible spare machine
      ({!Vini_overlay.Iias.migrate_vnode}), recording the move with its
      downtime.
    - {!run_planned} — {b make-before-break}: the same displacement as a
      planned live migration ({!Vini_core.Vini.migrate}): pre-cloned
      process, double-provisioned resources, atomic flip, drain,
      retire.  Downtime is zero and the recorded cutover loss is zero in
      steady state.

    Each returns the run's [vini.embed/1] export (mapping, substrate
    stress, acceptance, migration records) verbatim — two runs with the
    same seed produce byte-identical documents, which is what the
    determinism tests assert.  {!compare_modes} runs both on the same
    seed for the planned-vs-crash table ([vini migrate --compare]). *)

type result = {
  placement_before : int array;  (** vnode -> pnode at deploy *)
  placement_after : int array;   (** vnode -> pnode at the end *)
  migrations : Vini_core.Vini.migration list;
  reembed_failures : (int * Vini_embed.Embed.rejection) list;
  migration_failures : (int * string) list;
      (** planned moves rejected or rolled back, with reasons *)
  pings_sent : int;
  pings_received : int;
  ping_series : (float * float) list;
      (** reply (time s, rtt ms) pairs, engine-absolute times *)
  export : Vini_measure.Export.json;  (** the [vini.embed/1] document *)
}

val virtual_ring : int -> Vini_topo.Graph.t
(** An n-node ring with uniform 1 Gb/s / 2 ms / weight-10 links (a chain
    below three nodes, where a ring would duplicate its only link). *)

val export_of_migration :
  Vini_core.Vini.migration -> Vini_measure.Export.embed_migration
(** The canonical mapping of a core migration record into the
    [vini.embed/1] migration entry (kind, downtime, cutover loss,
    stretch and balance deltas). *)

val run :
  ?seed:int ->
  ?vnodes:int ->
  ?crash_at:float ->
  ?duration:float ->
  unit ->
  result
(** Crash-driven scenario.  Defaults: seed 4242, 6 virtual nodes, crash
    10 s into a 40 s measurement window (after 30 s of routing warmup),
    greedy solver.  The crashed machine is whichever one hosts virtual
    node 0. *)

val run_planned :
  ?seed:int ->
  ?vnodes:int ->
  ?migrate_at:float ->
  ?duration:float ->
  ?target:int ->
  unit ->
  result
(** Planned scenario: at [migrate_at] (same default instant as the
    crash), live-migrate virtual node 0 — the ping destination — to
    [target] (default: the first spare machine).  Timing knobs as
    {!run}. *)

type comparison = {
  planned : result;
  crash : result;
  planned_downtime_s : float;  (** summed over recorded moves; zero *)
  crash_downtime_s : float;
  planned_cutover_loss : int;  (** summed cutover loss; zero in steady state *)
  planned_ping_loss : int;     (** pings sent - received *)
  crash_ping_loss : int;
}

val compare_modes :
  ?seed:int ->
  ?vnodes:int ->
  ?at:float ->
  ?duration:float ->
  unit ->
  comparison
(** Run both scenarios with identical seed/topology/timing and derive
    the planned-vs-crash quality summary. *)
