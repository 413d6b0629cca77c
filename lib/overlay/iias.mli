(** "Internet In A Slice" — the reference network architecture that runs
    on PL-VINI (§4.2).

    An IIAS instance embeds a virtual topology onto physical nodes.  Each
    virtual node is a user-space process (Click, the data plane) in the
    experiment's slice, plus a routing instance (standing in for XORP, the
    control plane) talking over virtual point-to-point interfaces numbered
    from common /30 subnets of 10.0.0.0/8 (§4.1.3).  Virtual links are UDP
    tunnels between the physical nodes; a per-tunnel failure-injection
    element implements §5.2's controlled link failures.  A [tap0] host
    stack on every virtual node lets applications (ping, iperf, TCP
    servers) send and receive over the overlay; OpenVPN ingress and NAPT
    egress connect real end hosts and the external Internet (§4.2.3).

    Restrictions mirroring the prototype: at most one virtual node of a
    given IIAS instance per physical node (the tunnel UDP port is fixed
    per slice), and ingress/egress roles are declared before {!start}. *)

type t
type vnode

type routing_choice =
  | Static_routes
  | Ospf_routing of {
      hello : Vini_sim.Time.t;
      dead : Vini_sim.Time.t;
      spf_delay : Vini_sim.Time.t;
    }
  | Rip_routing of { scale : float }

val default_ospf : routing_choice
(** Hello 5 s, dead 10 s, SPF hold-down 200 ms — §5.2's configuration. *)

val create :
  underlay:Vini_phys.Underlay.t ->
  slice:Vini_phys.Slice.t ->
  vtopo:Vini_topo.Graph.t ->
  embedding:(int -> int) ->
  ?routing:routing_choice ->
  ?tunnel_port:int ->
  ?tunnel_rcvbuf_bytes:int ->
  ?click_burst:int ->
  unit ->
  t
(** [embedding] maps virtual node ids to physical node ids (injective).
    Default routing: {!default_ospf}; default tunnel port 33000;
    [tunnel_rcvbuf_bytes] sizes the Click process's tunnel-socket receive
    buffer (default {!Vini_phys.Calibration.udp_rcvbuf_bytes}) — the
    buffer whose overflow drives Figure 6, exposed for ablation.

    [click_burst] (default 1) batches every Click process's input
    service: each CPU service slice drains up to that many packets in one
    scheduler event (see {!Vini_phys.Process.create}).  1 keeps the
    classic one-event-per-packet schedule — required for runs whose
    exports must be byte-identical to historical baselines; higher values
    trade per-packet scheduler events for throughput, deterministically
    per seed. *)

val enable_egress : t -> int -> unit
(** Make a virtual node an egress: it advertises a default route into the
    overlay and NAPTs overlay traffic onto the real Internet.  Call before
    {!start}. *)

val enable_ingress : t -> int -> pool:Vini_net.Prefix.t -> unit
(** Make a virtual node an OpenVPN ingress serving client addresses from
    [pool].  Call before {!start}. *)

val advertise_prefix : ?quiet:bool -> t -> int -> Vini_net.Prefix.t -> unit
(** Make a virtual node own (and advertise, under OSPF/RIP) an additional
    prefix; traffic for it is delivered locally.  The hook behind
    alternative addressing schemes (§4.2.1's "one could implement a new
    addressing scheme in IIAS" — see [Keyspace]).  With [~quiet:true] the
    prefix is owned but {e not} advertised into the IGP — for prefixes
    whose reachability another protocol (BGP) is responsible for.  Call
    before {!start}. *)

val start : t -> unit

(** {2 Crash recovery}

    Virtual routers can die: a chaos fault (or {!kill_vnode}) crashes a
    vnode's Click process, and a whole-machine crash
    ({!Vini_phys.Underlay.set_node_state}) kills every process on the
    node.  A crash stops the vnode's routing instance for good and clears
    its FIB; neighbours notice via missed hellos and reroute.  With
    supervision enabled, the process is restarted under the policy's
    backoff, the RIB is replayed into the fresh FIB (routes survive the
    data-plane restart) and a new routing instance re-forms adjacencies
    and resyncs the LSDB. *)

val enable_supervision : ?policy:Vini_phys.Supervisor.policy -> t -> unit
(** Put every vnode process under a {!Vini_phys.Supervisor}.  Idempotent.
    Draws nothing from the RNG until a first crash actually happens, so
    enabling supervision on a fault-free run changes no result. *)

val supervisor : t -> Vini_phys.Supervisor.t option
val kill_vnode : t -> int -> unit
(** Crash one vnode's Click process ([Kill_process] fault). *)

(** {2 Migration}

    When a physical node dies for good, restart-in-place is hopeless; the
    embedding layer ({!Vini_core.Vini}) instead re-embeds the displaced
    virtual node onto a feasible surviving machine and calls
    {!migrate_vnode}. *)

val migrate_vnode : t -> int -> pnode:int -> unit
(** Rebuild virtual node [v] on physical node [pnode]: a fresh Click
    process and per-host state (NAPT public address, sockets, port
    bindings) on the target machine, keeping the virtual identity — tap
    address, /30 interface addresses, RIB.  Tunnels from every neighbour
    re-aim automatically (encapsulation resolves the current placement
    per packet).  If the instance is started, the router is revived
    immediately (RIB replayed into the fresh FIB, routing instance
    restarted to re-form adjacencies); a supervisor, if enabled, adopts
    the replacement process.
    @raise Invalid_argument if either id is out of range, the target is
    down, or the target already hosts a virtual node of this slice. *)

(** {2 Live migration (make-before-break)}

    A {e planned} move, in contrast to the crash-driven
    {!migrate_vnode}: the replacement process is pre-cloned and
    double-provisioned on the target while the old one keeps serving
    ({!begin_migration}); ingress and egress flip atomically in one
    engine event ({!commit_migration}); in-flight packets drain through the
    old process from a frozen FIB; then the old process is retired and
    the deferred routing changes replay ({!finish_migration}).  In
    steady state the cutover loses zero packets.  Driven end-to-end by
    [Vini_core.Vini.migrate]. *)

val begin_migration : t -> int -> pnode:int -> unit
(** Pre-clone vnode [v]'s Click process on physical node [pnode]: fresh
    process, tunnel/VPN sockets and input queues open, wired to the
    shared data plane, but receiving no traffic until the flip.
    @raise Invalid_argument if the instance is not started, either id is
    out of range, the target is down, already hosts this slice, or
    already hosts [v], a migration of [v] is already in flight, or [v]'s
    process is down. *)

val commit_migration : t -> int -> bool
(** The atomic flip: placement, tap/control injection, NAPT identity and
    supervision all switch to the pre-cloned process; the FIB is rebuilt
    fresh from the RIB and frozen for the drain.  The converged routing
    instance keeps running — its control traffic already originates
    from the new machine — so the control plane migrates with its state
    and never reconverges.  [false] (and no side effects) if
    the clone, its machine, or the old process died since
    {!begin_migration} — roll back with {!abort_migration}.  Run it as
    its own engine event, so no packet observes a half-done flip. *)

val finish_migration : t -> int -> int
(** Drain complete: retire the old process (planned exit — no crash
    hooks, no supervisor budget) and thaw the FIB, replaying routing
    changes deferred during the drain.  Returns the cutover loss: drops
    attributable to the vnode across the window plus packets the
    retirement found still buffered. *)

val abort_migration : t -> int -> unit
(** Roll back a not-yet-flipped migration; the old process never stopped
    serving.  @raise Invalid_argument after the flip (roll forward). *)

val migration_pending : t -> int -> bool
(** A migration of this vnode is in flight (begun, not yet finished or
    aborted). *)

val migration_grace : t -> int -> bool
(** The vnode is inside its [flip, drain-complete] window — the interval
    in which the watchdog suppresses loop/blackhole/FIB-consistency
    alarms for it ({!Vini_measure.Watchdog}). *)

val current_pnode : t -> int -> int
(** Physical node currently hosting a virtual node (differs from the
    deploy-time embedding after migrations). *)

val current_embedding : t -> int array
(** Snapshot of the current vnode -> pnode placement. *)

val vnode_alive : vnode -> bool

val vnode_count : t -> int
val vnode : t -> int -> vnode

(** {2 Per-virtual-node access} *)

val vname : vnode -> string
val tap : vnode -> Vini_phys.Ipstack.t
(** The host stack applications use (ICMP echo auto-answered). *)

val tap_addr : vnode -> Vini_net.Addr.t

val route_batch : vnode -> Vini_click.Batch.t -> unit
(** Push a whole burst through this virtual node's forwarding decision —
    the batched data plane's entry into the overlay FIB.  Equivalent to
    routing each packet of the batch in order (same decisions, same
    drops, same per-packet spans), but consecutive packets to one
    destination resolve the FIB once: the lookup memo is refreshed only
    when the destination or the table's {!Vini_click.Fib.generation}
    changes.  The caller owns the batch; routed packets leave through the
    usual tunnel elements. *)

val process : vnode -> Vini_phys.Process.t
val rib : vnode -> Vini_routing.Rib.t
val ospf : vnode -> Vini_routing.Ospf.t option
val fib_entries : vnode -> (Vini_net.Prefix.t * string) list

(** {2 Experiment control} *)

val set_vlink_state : t -> int -> int -> bool -> unit
(** Fail/restore a virtual link by dropping inside Click on both ends
    (§5.2) — the underlay never sees it. *)

val vlink_is_up : t -> int -> int -> bool

val set_vlink_loss : t -> int -> int -> float -> unit
(** Emulate a lossy virtual link: drop the given fraction inside Click on
    both directions (0.0 restores a clean link).
    @raise Invalid_argument outside [0,1]. *)

val set_vlink_corrupt : t -> int -> int -> float -> unit
(** Corrupt the given fraction of packets crossing the virtual link (both
    directions; 0.0 restores a clean link).  Corrupted frames still travel
    and are discarded by the receiver's checksum verification, counted in
    {!vstats.corrupt_drops}.
    @raise Invalid_argument outside [0,1]. *)

val set_vlink_bandwidth : t -> int -> int -> float option -> unit
(** Cap a virtual link's rate with a token-bucket shaper in Click on both
    directions ([None] removes the cap) — the §6.2 proposal for letting
    experimenters set link capacities. *)

val set_vlink_cost : t -> int -> int -> int -> unit
(** Reconfigure the IGP cost of a virtual link (both directions) and make
    the routing protocols re-advertise — §7's planned-maintenance usage:
    drain a link by raising its cost, without failing it. *)

val vlink_cost : t -> int -> int -> int

val add_static : t -> int -> Vini_net.Prefix.t -> via:int -> unit
(** Static route on vnode towards a neighbouring vnode. *)

val on_control :
  vnode ->
  (src:Vini_net.Addr.t -> ifindex:int -> Vini_net.Packet.control -> unit) ->
  unit
(** Additional control-message listener (e.g. BGP sessions riding the
    overlay); [src] is the sending virtual address, so multiple sessions
    on one node can demultiplex. *)

val alloc_vpn_addr : t -> int -> Vini_net.Addr.t
(** Next free client address from an ingress node's pool. *)

(** {2 Statistics} *)

type vstats = {
  forwarded : int;        (** packets pushed into tunnels *)
  delivered : int;        (** packets handed to the local tap *)
  no_route : int;
  ttl_drops : int;
  napt_out : int;
  napt_in : int;
  vpn_in : int;
  vpn_out : int;
  tunnel_drops : int;     (** failure-injection drops *)
  corrupt_drops : int;    (** frames discarded by receiver checksum *)
}

val stats : vnode -> vstats
val cpu_time : vnode -> Vini_sim.Time.t
val socket_drops : vnode -> int

val fib_cache_stats : vnode -> int * int
(** (hits, misses) of the vnode FIB's per-destination flow cache
    ({!Vini_click.Fib.cache_hits}); exported by
    [Vini_measure.Timeline.watch_vnode]. *)

val fib_memo_stats : vnode -> int * int
(** (hits, lookups) of the batched path's same-destination FIB memo in
    [route_batch] — the coalescing in front of the flow cache.  Hit rate
    is [hits / lookups]; deterministic per seed. *)

val fib_next :
  t -> int -> Vini_net.Addr.t -> [ `Local | `Hop of int | `No_route ]
(** Where vnode [v]'s FIB currently sends a packet for an address: deliver
    locally, hand to a neighbouring vnode, or drop.  The primitive under
    the watchdog's loop/blackhole probes. *)
