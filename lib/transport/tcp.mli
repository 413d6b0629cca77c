(** TCP Reno over any {!Vini_phys.Ipstack.t}.

    Segment-level TCP with the behaviours the paper's experiments exercise:
    slow start and congestion avoidance, triple-duplicate-ACK fast
    retransmit with NewReno-style partial-ack recovery, Jacobson/Karels
    RTO estimation with Karn's rule and exponential backoff, a fixed
    advertised receive window (iperf's default 16 KB limits §5.2's
    transfer to ~3 Mb/s), delayed ACKs, and slow-start restart after idle
    (visible in Figure 9(b) when the route heals).

    Payload bytes are counted, not materialised; sequence-number
    bookkeeping is exact, so delivery is provably in-order and complete —
    a property the test suite checks under loss. *)

type t

type stats = {
  bytes_acked : int;          (** sender view *)
  bytes_delivered : int;      (** receiver view, in-order *)
  retransmits : int;
  timeouts : int;
  srtt : float;               (** seconds; 0 until first sample *)
  cwnd : int;
  state : string;
}

val default_mss : int
val default_rwnd : int
(** 16 KB — iperf 1.7.0's default window (§5.2). *)

val connect :
  stack:Vini_phys.Ipstack.t ->
  dst:Vini_net.Addr.t ->
  dst_port:int ->
  ?rwnd:int ->
  unit ->
  t
(** Active open; the SYN goes out immediately.  Segments carry at most
    {!default_mss} bytes, and the retransmission timeout starts at 1 s. *)

val listen :
  stack:Vini_phys.Ipstack.t ->
  port:int ->
  ?rwnd:int ->
  on_accept:(t -> unit) ->
  unit ->
  unit
(** Passive open; each new remote endpoint yields an accepted connection. *)

val send : t -> int -> unit
(** Append [n] bytes to the application send stream. *)

val send_forever : t -> unit
(** Unbounded source (the iperf client). *)

val close : t -> unit
(** Send FIN once everything queued has been delivered. *)

val on_deliver : t -> (int -> unit) -> unit
(** Called with each chunk of in-order bytes as the receiver app reads. *)

val on_segment_arrival : t -> (Vini_net.Packet.t -> unit) -> unit
(** tcpdump hook: every segment this endpoint receives. *)

val on_established : t -> (unit -> unit) -> unit
val on_closed : t -> (unit -> unit) -> unit

val stats : t -> stats

val cwnd_hist : t -> Vini_std.Histogram.t
(** Congestion-window samples (bytes), one per ack that advanced
    [snd_una] — the cwnd-over-time story as a distribution.  Retransmits
    additionally emit [Custom] trace events ("rto-retransmit" /
    "fast-retransmit") when tracing is live. *)
