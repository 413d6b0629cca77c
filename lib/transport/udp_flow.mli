(** Constant-bit-rate UDP flows with iperf-style accounting.

    The sender paces numbered, timestamped probe datagrams at a configured
    rate; the receiver counts arrivals, losses (by sequence gap),
    reordering, and RFC 1889 interarrival jitter — exactly the quantities
    iperf's UDP test reports in §5.1's behaviour experiments (Table 6 and
    Figure 6). *)

type sender
type receiver

type receiver_stats = {
  received : int;
  lost : int;              (** sequence-gap estimate, like iperf *)
  out_of_order : int;
  jitter_s : float;        (** RFC 1889 smoothed jitter, seconds *)
  bytes : int;
  loss_pct : float;
}

val receiver : stack:Vini_phys.Ipstack.t -> port:int -> unit -> receiver
val receiver_stats : receiver -> receiver_stats

val sender :
  stack:Vini_phys.Ipstack.t ->
  dst:Vini_net.Addr.t ->
  dst_port:int ->
  rate_bps:float ->
  ?payload_bytes:int ->
  duration:Vini_sim.Time.t ->
  unit ->
  sender
(** Starts immediately; stops after [duration].  Default payload is the
    paper's 1430 bytes. *)

val sent : sender -> int
val sender_running : sender -> bool
