(** Wire-format constants and the Internet checksum.

    The simulator does not serialise packets to real byte buffers, but it
    accounts for their on-the-wire size exactly, so link serialisation
    delays and encapsulation overheads (a central concern of the paper's
    microbenchmarks) are faithful. *)

val ipv4_header : int (* 20 bytes, no options *)
val udp_header : int (* 8 bytes *)
val tcp_header : int (* 20 bytes, no options *)
val icmp_header : int (* 8 bytes *)

val openvpn_overhead : int
(** Extra bytes OpenVPN adds per tunnelled packet: outer IP + UDP plus
    crypto framing (~41 bytes with the default cipher). *)

val openvpn_port : int
(** 1194, the UDP port an opt-in client's tunnel reaches its ingress on:
    both ends ({!Vini_overlay.Openvpn} and {!Vini_overlay.Iias}) read
    it from here. *)

val ethernet_mtu : int (* 1500 *)

val default_udp_payload : int (* 1430 bytes — the iperf UDP payload size used throughout §5. *)

val checksum : Bytes.t -> int
(** RFC 1071 Internet checksum of a byte buffer (16-bit one's complement of
    the one's-complement sum). *)

val checksum_valid : Bytes.t -> bool (* A buffer with its checksum folded in sums to 0xFFFF. *)
