(** A link-state interior gateway protocol in the OSPFv2 mould.

    Implements the machinery the paper's §5.2 experiment exercises:
    periodic hellos per point-to-point interface, a dead interval that
    tears an adjacency down when hellos stop arriving (how the Click-level
    "link failure" becomes visible to routing), router-LSA origination
    with sequence numbers, reliable-ish flooding with stale-copy
    refutation, hold-down-scheduled SPF (Dijkstra over the LSDB with a
    bidirectional-link check), and route installation into the {!Rib}.

    The §5.2 configuration is hello 5 s / dead 10 s (footnote 3), which is
    what {!default_config} provides. *)

type hello = { h_rid : int; h_seen : int list }

type lsa = {
  origin : int;
  seq : int;
  links : (int * int) list;            (** (neighbour router id, cost) *)
  prefixes : Vini_net.Prefix.t list;   (** stub prefixes this router owns *)
}

type msg =
  | Hello of hello
  | Flood of lsa list
  | Ack of (int * int) list
      (** acknowledgements as (origin, seq) — flooding is reliable *)

type Vini_net.Packet.control += Msg of msg

type config = {
  router_id : int;
  hello_interval : Vini_sim.Time.t;
  dead_interval : Vini_sim.Time.t;
  spf_delay : Vini_sim.Time.t;   (** hold-down between LSDB change and SPF *)
  lsa_refresh : Vini_sim.Time.t;
  rxmt_interval : Vini_sim.Time.t;
  (** how often unacknowledged LSAs are retransmitted to a neighbour *)
  local_prefixes : Vini_net.Prefix.t list;
}

val default_config : router_id:int -> local_prefixes:Vini_net.Prefix.t list -> config

type t

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  config:config ->
  ifaces:Io.iface list ->
  rib:Rib.t ->
  t

val start : t -> unit
(** Begin sending hellos (each interface de-phased by random jitter). *)

val stop : t -> unit
(** Permanently silence the instance: timers unwind, arrivals are ignored,
    the RIB is no longer written.  Called when the hosting process
    crashes; a supervised restart creates a fresh instance which re-forms
    adjacencies and resyncs the LSDB. *)

val receive : t -> ifindex:int -> Vini_net.Packet.control -> unit
(** Feed an OSPF control message that arrived on an interface; non-OSPF
    messages are ignored. *)

val full_neighbors : t -> (int * int) list
(** (ifindex, neighbour router id) of adjacencies in Full state. *)

val lsdb : t -> lsa list
val spf_runs : t -> int
val messages_sent : t -> int

val reoriginate : t -> unit
(** Re-advertise this router's LSA immediately (after an interface-cost
    reconfiguration). *)

