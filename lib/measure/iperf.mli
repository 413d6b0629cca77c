(** iperf 1.7.0-style measurement runs (§5.1's workload).

    TCP mode: [streams] parallel connections (the paper uses 20) from a
    client stack to a server stack; throughput is payload bytes delivered
    at the server during the measurement window.  UDP mode: one CBR flow;
    the receiver reports loss and RFC 1889 jitter.

    Both functions only schedule work; the caller runs the engine past
    [start + warmup + duration] and then reads the result. *)

type tcp_run
type udp_run

val tcp :
  client:Vini_phys.Ipstack.t ->
  server:Vini_phys.Ipstack.t ->
  ?streams:int ->
  ?rwnd:int ->
  ?warmup:Vini_sim.Time.t ->
  start:Vini_sim.Time.t ->
  duration:Vini_sim.Time.t ->
  unit ->
  tcp_run
(** Defaults: 20 streams, iperf's 16 KB window, 2 s warmup before the
    measurement window opens.  Both modes use iperf's port 5001. *)

val tcp_mbps : tcp_run -> float
(** Payload throughput over the measurement window, Mb/s. *)

val tcp_total_delivered : tcp_run -> int
val tcp_retransmits : tcp_run -> int
val tcp_timeouts : tcp_run -> int

val udp :
  client:Vini_phys.Ipstack.t ->
  server:Vini_phys.Ipstack.t ->
  rate_bps:float ->
  start:Vini_sim.Time.t ->
  duration:Vini_sim.Time.t ->
  unit ->
  udp_run

val udp_loss_pct : udp_run -> float
val udp_jitter_ms : udp_run -> float
val udp_received : udp_run -> int
