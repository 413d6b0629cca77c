(** A Border Gateway Protocol speaker.

    Covers what VINI needs from BGP (§3.4, §6.1): eBGP/iBGP sessions with
    keepalive/hold-timer liveness over the {!Rchan} ARQ layer, path
    attributes (AS path, local preference, MED), loop rejection, the
    standard decision process, per-peer export policy (the hook the BGP
    multiplexer uses to confine an experiment to its own address block),
    MRAI-batched updates, and automatic session re-establishment. *)

type path = {
  origin_asn : int;
  as_path : int list;       (** nearest AS first *)
  next_hop : Vini_net.Addr.t;
  local_pref : int;
  med : int;
}

type update = {
  withdraw : Vini_net.Prefix.t list;
  announce : (Vini_net.Prefix.t * path) list;
}

type msg = Open of { asn : int; rid : int } | Keepalive | Update of update
type Vini_net.Packet.control += Msg of msg

type peer_kind = [ `Ebgp | `Ibgp ]
type peer_id = int

type config = {
  asn : int;
  rid : int;
  hold_time : Vini_sim.Time.t;     (** keepalives every third of this *)
  mrai : Vini_sim.Time.t;          (** update batching interval *)
  reconnect : Vini_sim.Time.t;
  next_hop_self : Vini_net.Addr.t;
  originate : Vini_net.Prefix.t list;
}

val default_config :
  asn:int -> rid:int -> next_hop_self:Vini_net.Addr.t ->
  originate:Vini_net.Prefix.t list -> config

type t

val create :
  engine:Vini_sim.Engine.t -> config:config -> ?rib:Rib.t -> unit -> t

val add_peer :
  t ->
  name:string ->
  kind:peer_kind ->
  send:(Vini_net.Packet.control -> size:int -> unit) ->
  ?export:(Vini_net.Prefix.t -> bool) ->
  ?import:(Vini_net.Prefix.t -> path -> bool) ->
  unit ->
  peer_id
(** Register a peer before {!start}.  [export] defaults to advertise-all;
    [import] (default accept-all) vets each received announcement — the
    BGP multiplexer uses it to confine experiments to their allocations. *)

val import_rejections : t -> peer_id -> int
(** Announcements a peer's import policy refused. *)

val start : t -> unit
val receive : t -> peer:peer_id -> Vini_net.Packet.control -> unit

val established : t -> peer_id -> bool
val loc_rib : t -> (Vini_net.Prefix.t * path) list
val best : t -> Vini_net.Prefix.t -> path option

val announce_prefix : t -> Vini_net.Prefix.t -> unit
(** Originate a prefix at runtime. *)

val withdraw_prefix : t -> Vini_net.Prefix.t -> unit

val session_resets : t -> int

val compare_paths : path -> path -> int
(** The decision process as a comparison (for tests): negative when the
    first path is preferred. Peer tie-breaks excluded. *)
