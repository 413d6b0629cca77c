(** Offline analysis of per-packet flight-recorder records.

    {!Vini_sim.Span} is the hot half: a gated, ring-bounded recorder that
    packet-path code feeds with flat origin/hop/drop records.  This module
    is the cold half.  It reassembles those records into one causal tree
    per provenance id ({!Vini_net.Packet.orig}), so a packet's life —
    across encapsulation, ICMP error generation, and NAPT rewriting —
    reads as a single timeline of attributed hops, optionally terminated
    by a drop.

    From the trees it derives the paper's §5.1.2-style decomposition
    (where did the latency go: queueing, CPU service, propagation,
    serialization, protocol processing), worst-path exemplars, and drop
    forensics (reason + site + the path the packet had taken so far). *)

(** {1 Tree model} *)

type origin = {
  o_pkt : int;  (** packet id recorded at this origin *)
  o_component : string;
  o_bytes : int;
  o_t : Vini_sim.Time.t;
}
(** A point where a packet entered the system.  A tree can hold several:
    re-encapsulation and ICMP-error generation re-originate the same
    provenance id. *)

type hop = {
  h_pkt : int;
  h_component : string;
  h_attribution : Vini_sim.Span.attribution;
  h_t0 : Vini_sim.Time.t;
  h_t1 : Vini_sim.Time.t;
}
(** One attributed interval of the packet's life. *)

type drop = {
  d_pkt : int;
  d_component : string;
  d_reason : string;
  d_bytes : int;
  d_t : Vini_sim.Time.t;
}

type tree = {
  tree_orig : int;      (** provenance id shared by every record below *)
  origins : origin list;  (** chronological; head is the root origin *)
  hops : hop list;        (** chronological *)
  drops : drop list;      (** non-empty iff the tree died somewhere *)
}

val trees : Vini_sim.Span.t -> tree list
(** Reassemble the recorder's retained records into causal trees, in
    order of first appearance.  Records evicted by ring wraparound are
    simply absent; a tree whose early records were evicted still carries
    its surviving suffix. *)

val hop_duration_s : hop -> float
val total_latency : tree -> float
(** Sum of all hop durations, seconds: the recorded (attributed) portion
    of the packet's end-to-end latency. *)

val root_component : tree -> string
(** Component of the first origin, or ["?"] if the origin was evicted. *)

(** {1 Latency attribution} *)

type row = {
  attribution : Vini_sim.Span.attribution;
  total_s : float;     (** summed duration across all matching hops *)
  hop_count : int;
  hist : Vini_std.Histogram.t;  (** per-hop durations, seconds *)
}

val breakdown : tree list -> row list
(** One row per attribution category (in {!Vini_sim.Span.attributions}
    order), aggregated over every hop of every tree given. *)

val breakdown_by_origin : tree list -> (string * row list) list
(** Per-flow/slice attribution: trees grouped by {!root_component}
    (a TCP source, a VPN ingress, a routing-protocol emitter), each group
    reduced with {!breakdown}.  Order of first appearance. *)

(** {1 Drop forensics} *)

type path_step =
  | At_origin of origin
  | Through of hop

type forensic = {
  f_orig : int;
  f_pkt : int;          (** the packet that actually died *)
  f_site : string;      (** component that dropped it *)
  f_reason : string;
  f_bytes : int;
  f_t : Vini_sim.Time.t;
  f_path : path_step list;
      (** path-so-far: every origin and hop recorded at or before the
          drop, chronological *)
}

val forensics : tree list -> forensic list
(** One record per drop across all trees.  Every drop site in the
    simulator records its drop on an already-open tree, so [f_path] is
    non-empty except when ring wraparound evicted the whole prefix. *)

(** {1 Worst-path exemplars} *)

val worst : ?n:int -> tree list -> tree list
(** The [n] (default 5) trees with the highest {!total_latency}. *)
