(** Undirected network topologies.

    Nodes are dense integer ids with human-readable names; links are
    point-to-point with a bandwidth, a one-way propagation delay, a random
    loss rate, and an IGP weight.  This one structure describes both
    physical substrates (Abilene, DETER) and the virtual topologies VINI
    embeds on them. *)

type node_id = int

type link = {
  a : node_id;
  b : node_id;
  bandwidth_bps : float;
  delay : Vini_sim.Time.t;  (** one-way propagation *)
  loss : float;             (** per-packet drop probability in [0,1] *)
  weight : int;             (** IGP cost, symmetric *)
}

type t

exception Unknown_node of { topo : string; node : string }
(** Raised by {!id_of_name} for unknown names; carries the topology's
    {!label} and the offending name so the error that surfaces from spec
    elaboration (or anywhere else) says exactly what was missing and
    where — never a bare [Not_found]. *)

val create : names:string array -> links:link list -> t
(** @raise Invalid_argument on out-of-range endpoints, self-loops,
    duplicate (unordered) node pairs, or a link whose weight is negative,
    whose bandwidth is not positive or whose loss is outside [0, 1] (the
    message names the link by its endpoints).  The new graph's {!label}
    is the generic ["topology"]; use {!relabel} to give it a real name. *)

val relabel : string -> t -> t
(** [relabel l t] is [t] with {!label} [l] — the built-in datasets stamp
    theirs (["abilene"], ["nlr"], …), spec elaboration uses the spec name,
    and the scenario generator stamps generated substrates with kind and
    seed, so {!Unknown_node} errors say which topology was searched. *)

val node_count : t -> int
val link_count : t -> int
val label : t -> string
val name : t -> node_id -> string

val id_of_name : t -> string -> node_id
(** @raise Unknown_node for unknown names. *)

val id_of_name_opt : t -> string -> node_id option

val links : t -> link list
val nodes : t -> node_id list

val neighbors : t -> node_id -> (node_id * link) list
(** Sorted by neighbor id (deterministic iteration order). *)

val find_link : t -> node_id -> node_id -> link option
(** Either endpoint order. *)

val other_end : link -> node_id -> node_id
(** @raise Invalid_argument when the node is not an endpoint. *)

val is_connected : t -> bool

(** {2 Adjacency slots}

    Each direction of each link has a dense slot number: node [u]'s
    neighbours, in {!neighbors} order, hold slots [first_slot t u] to
    [first_slot t (u + 1) - 1].  Arrays indexed by slot carry
    per-direction state (weights, physical links) without hashing. *)

val slot_count : t -> int
(** [2 * link_count t]. *)

val first_slot : t -> node_id -> int
(** Defined for [0 .. node_count t]; [first_slot t (node_count t)] is
    {!slot_count}. *)

val slot_target : t -> int -> node_id
(** The neighbour a slot leads to. *)

val slot_link : t -> int -> int
(** The position in {!links} of the link a slot crosses. *)

val find_slot : t -> node_id -> node_id -> int
(** The slot from [u] to [v], or -1 when they are not adjacent or [u] is
    not a node.  Scans [u]'s slots. *)

(** {2 Shortest paths} *)

type scratch
(** Working memory for {!dijkstra_into}, sized for one graph. *)

val scratch : t -> scratch

val dijkstra_into :
  t -> scratch -> weights:int array -> dist:int array -> prev:int array ->
  node_id -> unit
(** [dijkstra_into t s ~weights ~dist ~prev src] runs Dijkstra from
    [src] with [weights.(slot)] as each slot's cost and overwrites [dist]
    and [prev] (each at least {!node_count} long): [max_int] and -1 for
    unreachable nodes, -1 for [src]'s [prev].  Nodes leave the heap by
    distance, then id, and a tie moves [prev] to the lower-numbered node,
    so the tree is {!dijkstra}'s.  Allocates nothing.
    @raise Invalid_argument on a negative weight it relaxes. *)

val dijkstra : ?weight_of:(link -> int) -> t -> node_id -> int array * node_id option array
(** [dijkstra t src] returns [(dist, prev)]; unreachable nodes have
    [dist = max_int] and [prev = None].  Ties broken towards the
    lower-numbered previous hop, deterministically.  A wrapper over
    {!dijkstra_into} that allocates its arrays. *)

val shortest_path : ?weight_of:(link -> int) -> t -> node_id -> node_id -> node_id list option
(** Node sequence from src to dst inclusive, or [None] if unreachable. *)

val bellman_ford : ?weight_of:(link -> int) -> t -> node_id -> int array
(** Reference implementation used by property tests. *)

val path_delay : t -> node_id list -> Vini_sim.Time.t
(** Sum of one-way link delays along a node path.
    @raise Invalid_argument if consecutive nodes are not adjacent. *)

val path_weight : t -> node_id list -> int

val pp : Format.formatter -> t -> unit
