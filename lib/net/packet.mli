(** The simulated IPv4 packet.

    A packet is structured metadata plus exact wire-size accounting; links
    charge serialisation time from {!size} and encapsulation (UDP tunnels,
    OpenVPN) nests whole packets, mirroring how IIAS carries Ethernet/IP
    frames inside UDP (§4.2.1).

    Routing-protocol messages travel inside ordinary packets via the
    extensible {!type-control} type: each protocol registers its own
    constructor, so control traffic crosses the same tunnels, queues, and
    failure-injection elements as data traffic — the property the paper's
    Figure 8 experiment depends on.

    Packets are immutable records: forwarding transforms ({!decr_ttl},
    {!with_dst}, NAPT rewrites) allocate one small record and share the
    body, so a packet held in a queue can never be mutated behind the
    queue's back — a determinism guarantee the chaos layer relies on.
    The only per-hop cost is that record copy: {!size} reads a length
    cached at construction and {!intact} reads the corruption flag, so
    neither allocates nor walks the encapsulation chain. *)

type control = ..
(** Extended by [vini_routing] (OSPF/RIP/BGP messages). *)

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type echo = { ident : int; icmp_seq : int; sent_ns : int; data_len : int }

type icmp =
  | Echo_request of echo
  | Echo_reply of echo
  | Time_exceeded of { orig_src : Addr.t; orig_dst : Addr.t }
  | Dest_unreachable of { orig_src : Addr.t; orig_dst : Addr.t }

type probe = { flow : int; seq : int; sent_ns : int; pad : int }
(** A measurement datagram: flow id, sequence number, send timestamp and
    padding bytes (iperf UDP test packets). *)

type tcp = {
  sport : int;
  dport : int;
  seq : int;            (** first payload byte's stream offset *)
  ack : int;            (** cumulative ack (next expected byte) *)
  flags : tcp_flags;
  window : int;         (** advertised receive window, bytes *)
  payload_len : int;
  sent_ns : int;      (** sender timestamp (for tracing; RTT uses timers) *)
}

type body =
  | Bytes_ of int                              (** opaque payload of n bytes *)
  | Tunnel of t                                (** IIAS UDP-tunnel encapsulation *)
  | Vpn of t                                   (** OpenVPN encapsulation *)
  | Probe of probe
  | Control of { size : int; msg : control }   (** routing-protocol message *)

and udp = { usport : int; udport : int; body : body }

and proto = Udp of udp | Tcp of tcp | Icmp of icmp

and t = private {
  id : int;             (** unique per process run, for tracing *)
  orig : int;           (** provenance: the root packet's id.  Equal to
                            [id] for fresh packets; encapsulation
                            (UDP tunnel, OpenVPN) and ICMP error
                            generation pass the inner/offending packet's
                            [orig] through, so the flight recorder
                            ({!Vini_sim.Span}) joins outer frames onto
                            the original packet's causal tree. *)
  src : Addr.t;
  dst : Addr.t;
  ttl : int;
  proto : proto;
  corrupt : bool;       (** a fault element damaged the frame in flight *)
  len : int;            (** cached total datagram size; read via {!size} *)
}

val udp :
  ?ttl:int -> ?orig:int -> src:Addr.t -> dst:Addr.t -> sport:int ->
  dport:int -> body -> t
val tcp : src:Addr.t -> dst:Addr.t -> tcp -> t
val icmp : ?ttl:int -> ?orig:int -> src:Addr.t -> dst:Addr.t -> icmp -> t
(** A TCP segment leaves with TTL 64 as its own provenance root.  For
    [udp] and [icmp], [?ttl] defaults to 64 and [?orig] overrides the
    provenance id (default: the fresh packet's own id).  Pass
    [inner.orig] at encapsulation sites and the offending packet's [orig]
    when generating ICMP errors. *)

val size : t -> int
(** Total IP datagram size in bytes (header + nested contents).  O(1):
    the length is computed at construction and cached in {!field-len},
    because every element and link charges bytes per hop. *)

val decr_ttl : t -> t option
(** [None] when the TTL would reach zero (caller sends Time_exceeded). *)

val corrupted : t -> t
(** The same packet with a bit flipped in flight.  Receivers detect it via
    {!intact} and discard it, charging the loss to the corruption fault. *)

val intact : t -> bool
(** [false] exactly for {!corrupted} packets.  Runs once per decapsulated
    frame on the forwarding hot path, so it reads the corruption flag
    directly; this is provably equivalent to re-deriving the wire header
    and verifying its Internet checksum, because {!write_header} damages
    exactly one byte after checksumming — see {!intact_wire}. *)

val intact_wire : t -> bool
(** The checksum route: materialise the IPv4 header image ({!write_header}
    into a reused scratch buffer) and verify it with
    {!Wire.checksum_valid}.  Semantically identical to {!intact} — a test
    asserts the equivalence on arbitrary packets — but pays the header
    serialisation; kept as the oracle for that test and for callers that
    want the real wire check. *)

val with_src : t -> Addr.t -> t
val with_dst : t -> Addr.t -> t
val with_udp_ports : t -> sport:int -> dport:int -> t
(** @raise Invalid_argument on a non-UDP packet. Used by NAPT. *)

val with_tcp_ports : t -> sport:int -> dport:int -> t
(** @raise Invalid_argument on a non-TCP packet. Used by NAPT. *)

val describe : t -> string
(** One-line human-readable summary (tcpdump-ish). *)
