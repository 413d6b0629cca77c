(** The physical internet underneath VINI.

    Instantiates a {!Vini_topo.Graph.t} as physical nodes and links, routes
    packets between public addresses with static shortest paths (the
    underlying IP network), and masks failures as the real Internet does
    under PL-VINI (§3.1): when a physical link or machine fails the
    underlay recomputes routes around it, and traffic blackholes only
    where no path is left.  Topology changes are also announced to
    subscribers — the "upcalls of layer-3 alarms to virtual nodes" of
    Table 1, which let an overlay see what the underlay hides. *)

type t

type event =
  | Link_down of Vini_topo.Graph.node_id * Vini_topo.Graph.node_id
  | Link_up of Vini_topo.Graph.node_id * Vini_topo.Graph.node_id
  | Node_down of Vini_topo.Graph.node_id
  | Node_up of Vini_topo.Graph.node_id

type node_profile = { speed_ghz : float; contention : Cpu.contention }

val planetlab_profile : speed_ghz:float -> node_profile
(** Shared node with the calibrated contention model. *)

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  graph:Vini_topo.Graph.t ->
  ?profile:(Vini_topo.Graph.node_id -> node_profile) ->
  unit ->
  t
(** Default profile: dedicated 2.8 GHz nodes.  Node [i] gets address
    198.32.154.(10+i) (the paper's example block), continuing
    sequentially into 198.32.155.x past .255. *)

val engine : t -> Vini_sim.Engine.t
val graph : t -> Vini_topo.Graph.t
val node : t -> Vini_topo.Graph.node_id -> Pnode.t
val addr : t -> Vini_topo.Graph.node_id -> Vini_net.Addr.t
val nodes : t -> Pnode.t list

val plink : t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> Plink.t
(** @raise Not_found if the nodes are not adjacent. *)

val set_link_state :
  t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> bool -> unit
(** Fail or restore a physical link; triggers rerouting and upcalls.  A reroute recomputes every source's tree: one int-array
    Dijkstra per node over per-slot weights computed once, allocating
    nothing (2.4–4.2 ms for 200 PoPs on a 2-vCPU VM). *)

val link_is_up : t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> bool

val set_node_state : t -> Vini_topo.Graph.node_id -> bool -> unit
(** Crash ([false]) or reboot ([true]) a physical machine: {!Pnode.crash} /
    {!Pnode.reboot}, rerouting around it and an upcall.
    Crashing kills every process attached to the node; rebooting does not
    restart them — that is the {!Supervisor}'s job. *)

val node_is_up : t -> Vini_topo.Graph.node_id -> bool

val subscribe : t -> (event -> unit) -> unit
(** Register for topology-change upcalls. *)

val next_hop :
  t -> from:Vini_topo.Graph.node_id -> dst:Vini_topo.Graph.node_id ->
  Vini_topo.Graph.node_id option
(** Current underlay routing decision: the next hop on the shortest path
    from [from] to [dst], [None] when [from = dst] or [dst] is
    unreachable.  It ignores link state, so where a cut link is the only
    path left the route through it stands ({!forward_slot} reports the
    blackhole).  Reads the flat next-hop table, rebuilt on every
    reroute: a range check and two array loads, plus the [Some] it
    allocates.
    @raise Invalid_argument when a node id is out of range. *)

val forward_slot :
  t -> from:Vini_topo.Graph.node_id -> dst:Vini_topo.Graph.node_id -> int
(** The adjacency slot ({!Vini_topo.Graph.first_slot}) by which a packet
    at [from] for [dst] leaves: {!next_hop}'s slot when its link is up,
    -1 when the packet would blackhole (no route, or the link is down).
    {!Vini_topo.Graph.slot_target} of it is the next node.  Reads the
    flat forwarding table the packet path uses, stored destination-major
    so every hop towards one [dst] reads one row: a range check and one
    array load, allocates nothing.
    @raise Invalid_argument when a node id is out of range. *)

val blackholed : t -> int
(** Packets dropped for lack of a usable route. *)
