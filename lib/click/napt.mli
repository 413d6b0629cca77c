(** Network Address and Port Translation (the IIAS egress, §4.2.3).

    Outbound packets leaving the overlay for the real Internet get their
    source rewritten to the egress node's public address and a fresh local
    port; the mapping is remembered so return traffic — which external
    hosts address to the egress node — is rewritten back and re-enters the
    overlay.  UDP, TCP, and ICMP echo (keyed by identifier) are supported,
    which covers everything the experiments send. *)

type t

val create : public_addr:Vini_net.Addr.t -> unit -> t

val translate_out : t -> Vini_net.Packet.t -> Vini_net.Packet.t option
(** Rewrite an overlay packet for the outside; [None] for untranslatable
    packets (e.g. ICMP errors). *)

val translate_in : t -> Vini_net.Packet.t -> Vini_net.Packet.t option
(** Match return traffic against the table; [None] when no mapping
    exists (the packet is not ours). *)

val mappings : t -> int
