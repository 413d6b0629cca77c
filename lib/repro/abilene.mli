(** §5.2 — intra-domain routing changes on the Abilene mirror.

    The virtual network mirrors the 11-PoP Abilene backbone with the
    real OSPF weights, extracted from the embedded router configurations
    through the rcc pipeline (§6.2).  At t=10 s the Denver – Kansas City
    virtual link fails (packets dropped inside Click); at t=34 s it
    recovers.  Figure 8 watches ping RTT between Washington D.C. and
    Seattle; Figure 9 watches a 16 KB-window TCP transfer. *)

val topology : unit -> Vini_topo.Graph.t
(** The mirror topology, via the rcc config pipeline. *)

val expected_paths : unit -> (string list * string list)
(** (primary, post-failure) D.C.->Seattle shortest paths by PoP name —
    the Figure 7 routes. *)

type fig8 = {
  rtt_series : (float * float) list;  (** (s since epoch, RTT ms) *)
  rtt_before : float;                 (** mean RTT pre-failure *)
  rtt_after : float;                  (** mean RTT on the backup path *)
  detect_delay : float;               (** s from failure to first reroute *)
  restore_rtt : float;                (** mean RTT after restoration *)
}

val fig8_run :
  ?seed:int -> ?fail_at:float -> ?restore_at:float -> ?ping_interval_ms:int ->
  ?hello:int -> ?dead:int -> unit -> fig8
(** [hello]/[dead] override the OSPF timers (defaults 5/10 s, §5.2
    footnote 3) — the timer-sweep ablation varies them. *)

type fig9 = {
  cumulative : (float * float) list;   (** (s, MB transferred) — Fig 9a *)
  positions : (float * float) list;    (** (s, MB offset in stream) — Fig 9b *)
  total_mb : float;
  stall_start : float;                 (** last progress before the outage *)
  stall_end : float;                   (** first progress after reroute *)
}

val fig9_run :
  ?seed:int -> ?fail_at:float -> ?restore_at:float -> unit -> fig9

val upcall_demo : ?seed:int -> unit -> int * int
(** Fail and restore a {e physical} Abilene link with two experiments
    deployed; returns (upcalls seen by experiment 1, by experiment 2) —
    the §6.1 exposure mechanism. *)
