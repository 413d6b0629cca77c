(** The ping tool.

    Sends ICMP echo requests over any host stack (physical or overlay tap)
    and records round-trip times.  Two modes mirror the paper's uses:
    [`Flood] is [ping -f] (next probe on reply, or at the 10 ms flood
    floor; §5.1's latency microbenchmarks), [`Interval] is plain periodic
    ping (Figure 8's RTT-during-convergence plot). *)

type t

type mode = Flood | Interval of Vini_sim.Time.t

val start :
  stack:Vini_phys.Ipstack.t ->
  dst:Vini_net.Addr.t ->
  count:int ->
  ?mode:mode ->
  ?reply_timeout:Vini_sim.Time.t ->
  unit ->
  t
(** Begins pinging immediately.  Default mode [Flood], payload 56 bytes,
    timeout 1 s (an unanswered probe counts as lost; the next probe is
    not delayed past the timeout). *)

val sent : t -> int
val received : t -> int
val loss_pct : t -> float
val rtt_ms : t -> Vini_std.Stats.t
(** RTT samples in milliseconds. *)

val series : t -> (float * float) list
(** (send time s, RTT ms) for replies, chronological — Figure 8's data. *)

val finished : t -> bool
val on_finish : t -> (unit -> unit) -> unit
