(** A PlanetLab-style slice: the unit of resource allocation (§4.1.1).

    A slice names an experiment and carries the CPU-scheduling parameters
    VINI can grant it: a fair share (always), an optional CPU reservation
    (a guaranteed minimum fraction), and an optional real-time priority
    boost (§4.1.2).  Processes created on physical nodes belong to a slice
    and inherit its scheduling treatment. *)

type t = {
  name : string;
  mutable reservation : float;  (** guaranteed CPU fraction in [0,1]; 0 = none *)
  mutable realtime : bool;      (** Linux real-time priority boost *)
}

val create : ?reservation:float -> ?realtime:bool -> string -> t

val default_share : string -> t
(** Plain PlanetLab fair share: no reservation, no boost. *)

val pl_vini : string -> t
(** The PL-VINI treatment of §5.1.2: 25% reservation plus real-time
    priority. *)
