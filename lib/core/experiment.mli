(** Experiment specifications (§6.2).

    The paper argues VINI experiments should be specified the way ns or
    Emulab scripts are: a topology, routing configuration, and a timeline
    of events (link failures, traffic changes).  A [spec] is exactly that,
    and [Vini.deploy] turns one into a running virtual network.  Events
    are relative to the experiment's start instant. *)

type action =
  | Fail_vlink of int * int
      (** drop packets inside Click on this virtual link (§5.2) *)
  | Restore_vlink of int * int
  | Fail_plink of int * int
      (** fail the underlying physical link (exercises masking/upcalls) *)
  | Restore_plink of int * int
  | Set_vlink_loss of int * int * float
      (** emulate a lossy virtual link *)
  | Set_vlink_bandwidth of int * int * float option
      (** cap (or uncap) a virtual link's rate via a Click shaper (§6.2) *)
  | Set_vlink_cost of int * int * int
      (** reconfigure an IGP cost and re-advertise (§7 maintenance) *)
  | Crash_pnode of int
      (** crash the physical machine hosting this virtual node: every
          process on it dies, all its links go dark *)
  | Restore_pnode of int
      (** reboot that machine; supervised processes then restart *)
  | Kill_process of int
      (** crash just the virtual node's Click process *)
  | Flap_vlink of int * int * float
      (** fail a virtual link, restore it after the given seconds *)
  | Corrupt_vlink of int * int * float
      (** corrupt the given fraction of the link's packets; receivers
          drop them on checksum verification *)
  | Migrate_vnode of int * int
      (** live-migrate the virtual node to the given physical node,
          make-before-break ([Vini.migrate ~target]): pre-clone, atomic
          flip, drain, retire — zero packet loss in steady state *)
  | Custom of string * (Vini_overlay.Iias.t -> unit)
      (** named scripted action (start traffic, change rates, ...) *)

val is_chaos_action : action -> bool
(** True for the fault-injection actions ([Crash_pnode], [Restore_pnode],
    [Kill_process], [Flap_vlink], [Corrupt_vlink]).  [Vini.start] enables
    supervised recovery automatically when a spec contains any. *)

val action_to_string : action -> string
(** Stable textual form (the spec-language verb plus operands) — used in
    traces, reports and plan-equality tests. *)

type event = { at : Vini_sim.Time.t; action : action }

type placement =
  | Pinned of (int -> int)
      (** hand-written embedding: virtual node id -> physical node id,
          injective *)
  | Auto of Vini_embed.Request.t
      (** capacity-aware placement solved at deploy time against the
          substrate's residual capacities; the request's pins fix chosen
          virtual nodes, everything else is placed by the solver *)

type scenario = {
  workload : Vini_scenario.Workload.params;
      (** the background user population and its traffic mix *)
  fidelity : Vini_scenario.Fluid.fidelity;
      (** [Packet] = no fluid model (the default when [scenario] is
          [None]); [Flow] = account background load only; [Hybrid] =
          also fold it into the packet path as queueing delay and loss
          pressure *)
  tick : Vini_sim.Time.t;  (** fluid fold period *)
}
(** The scenario half of a spec: a generated million-user background
    workload and the fidelity at which to simulate it (DESIGN.md §17).
    [Vini.start] installs the fluid model on the instance's underlay
    when present with a non-[Packet] fidelity. *)

type spec = {
  exp_name : string;
  slice : Vini_phys.Slice.t;
  vtopo : Vini_topo.Graph.t;
  placement : placement;
  routing : Vini_overlay.Iias.routing_choice;
  ingresses : (int * Vini_net.Prefix.t) list;
  egresses : int list;
  events : event list;
  scenario : scenario option;
      (** background workload + fidelity; [None] = pure packet fidelity *)
}

val make :
  name:string ->
  slice:Vini_phys.Slice.t ->
  vtopo:Vini_topo.Graph.t ->
  ?embedding:(int -> int) ->
  ?placement:placement ->
  ?routing:Vini_overlay.Iias.routing_choice ->
  ?ingresses:(int * Vini_net.Prefix.t) list ->
  ?egresses:int list ->
  ?events:event list ->
  ?scenario:scenario ->
  unit ->
  spec
(** Defaults: identity embedding (virtual node i on physical node i),
    OSPF with the paper's timers, no ingress/egress, no events, no
    background scenario.  [?embedding:f] is sugar for
    [?placement:(Pinned f)].
    @raise Invalid_argument when both [embedding] and [placement] are
    given. *)

val mirror :
  name:string ->
  slice:Vini_phys.Slice.t ->
  graph:Vini_topo.Graph.t ->
  unit ->
  spec
(** A virtual network that mirrors a physical topology one-to-one with
    the same link weights — the §5.2 "Abilene mirror" construction. *)

val at : float -> action -> event
(** [at seconds action] — sugar for building timelines. *)

val validate : ?phys:Vini_topo.Graph.t -> spec -> (unit, string) result
(** Check the placement (injectivity and, with [phys], that every pinned
    or hand-written target actually exists on the substrate) and event
    references before deploying. *)
