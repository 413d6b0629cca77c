(** The routing information base.

    Each virtual node's protocols (connected, static, OSPF, RIP, BGP)
    deposit candidate routes here; the RIB picks a winner per prefix by
    administrative distance (then metric) and emits FIB changes through
    the forwarding-engine abstraction — the role XORP's FEA plays between
    the routing processes and Click (§4.2.2). *)

type proto = Connected | Static | Ebgp | Ospf | Rip | Ibgp
(** Administrative distances are the conventional values: connected 0,
    static 1, eBGP 20, OSPF 110, RIP 120, iBGP 200. *)

val proto_name : proto -> string

type route = {
  next_hop : Vini_net.Addr.t;
  metric : int;
  proto : proto;
}

type change =
  | Install of Vini_net.Prefix.t * route
  (** New best route for the prefix (also on replacement). *)
  | Withdraw of Vini_net.Prefix.t
  (** No route remains for the prefix. *)

type t

val create : fea:(change -> unit) -> unit -> t

val update : t -> proto:proto -> Vini_net.Prefix.t -> route option -> unit
(** [update t ~proto p (Some r)] sets protocol [proto]'s candidate for
    prefix [p]; [None] withdraws it.  The route's [proto] field must match.
    Emits a FIB change iff the best route changed. *)

val replace_all : t -> proto:proto -> (Vini_net.Prefix.t * route) list -> unit
(** Atomically replace every candidate a protocol contributes (how OSPF
    applies a fresh SPF result). *)

val best : t -> Vini_net.Prefix.t -> route option
val routes : t -> (Vini_net.Prefix.t * route) list
(** Current best routes, sorted. *)

val reinstall : t -> unit
(** Re-emit [Install] for every current best route — repopulates a freshly
    cleared FIB after a data-plane restart, before protocols reconverge. *)
