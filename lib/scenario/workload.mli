(** Deterministic heavy-tailed workload generation (DESIGN.md §17).

    Models [users] simulated opt-in OpenVPN users as a single merged
    Poisson arrival process of flows with Pareto-distributed sizes — the
    classic heavy-tailed traffic mix.  The stream is {e lazy}: state is a
    clock, one RNG, and O(1) bookkeeping, so a million-user timeline costs
    nothing until pulled and is never materialised.

    Everything derives from [(params, seed)]: pulling N flows gives the
    same N flows on every host.  Users attach to
    substrate nodes by a seeded popularity skew (a few PoPs serve many
    opt-in users, most serve few), and each flow's wire cost includes
    OpenVPN encapsulation via {!Vini_overlay.Openvpn.wire_bytes}. *)

type params = {
  users : int;  (** simulated opt-in user population *)
  seed : int;
  flow_rate_per_user : float;  (** mean flows per second per user *)
  mean_flow_bytes : float;  (** mean Pareto flow size (payload bytes) *)
  pareto_shape : float;  (** tail index; must be > 1 for a finite mean *)
  popularity_skew : float;
      (** >= 0; 0 spreads users uniformly over nodes, larger values
          concentrate them onto the first nodes of a seeded permutation *)
}

val default : users:int -> seed:int -> params
(** 0.002 flows/s/user, 50 kB mean flows, shape 1.5, skew 1.0 — a light
    per-user rate so million-user populations stay tractable, with the
    canonical heavy tail. *)

val validate : params -> (unit, string) result

type flow = {
  at : Vini_sim.Time.t;  (** arrival instant *)
  user : int;
  src_node : int;  (** attachment PoP on the substrate *)
  dst_node : int;  (** egress PoP; never equal to [src_node] *)
  bytes : int;  (** payload size *)
  wire_bytes : int;  (** with OpenVPN encapsulation, MTU packetisation *)
}

type t

val create : params -> nodes:int -> t
(** A fresh stream over a substrate of [nodes] attachment points.
    @raise Invalid_argument if {!validate} fails or [nodes < 2]. *)

val next : t -> flow
(** Pull the next flow; the stream is infinite and strictly increasing in
    [at] (ties impossible: inter-arrivals are positive floats). *)

val peek_time : t -> Vini_sim.Time.t
(** Arrival instant of the flow {!next} would return, without consuming
    it — what the fluid tick uses to pull exactly the flows due. *)

val aggregate_rate : params -> float
(** Total flow arrivals per second, [users * flow_rate_per_user]. *)

val mean_offered_bps : params -> float
(** Expected offered payload load in bits per second. *)

val home_node : params -> nodes:int -> int -> int
(** [home_node p ~nodes u] is user [u]'s attachment node — a pure
    function of [(params.seed, u)], exposed for property tests of the
    popularity skew. *)
