(** §5.1.2 — microbenchmark #2, the overlay on shared PlanetLab nodes.

    Reproduces Table 4 (TCP throughput with CPU), Table 5 (ping), Table 6
    (UDP jitter), and Figure 6 (packet loss vs UDP rate, with and without
    PL-VINI's CPU reservation + real-time boost) on the Chicago — New York
    — Washington D.C. PlanetLab chain. *)

type condition =
  | Network          (** kernel path between the physical nodes *)
  | Iias_default     (** overlay in a default fair-share slice *)
  | Iias_plvini      (** overlay with 25% reservation + rt priority *)

val condition_name : condition -> string

type tcp_result = {
  mbps_mean : float;
  mbps_stddev : float;
  cpu_pct : float;   (** NaN for [Network] (no Click process) *)
}

type ping_result = {
  p_min : float;
  p_avg : float;
  p_max : float;
  p_mdev : float;
  p_loss_pct : float;
}

type jitter_result = { jitter_mean_ms : float; jitter_stddev_ms : float }

val tcp : condition -> ?runs:int -> ?duration_s:int -> ?seed:int -> unit -> tcp_result
val ping : condition -> ?count:int -> ?seed:int -> unit -> ping_result

val jitter : condition -> ?seed:int -> unit -> jitter_result
(** Jitter pooled across 10-s CBR runs at 1, 10, 25 and 50 Mb/s (the
    paper found no rate correlation and reports one number per
    condition). *)

val loss_sweep :
  condition -> ?rates_mbps:float list -> ?duration_s:int -> ?seed:int -> unit ->
  (float * float) list
(** Figure 6: (rate Mb/s, loss %) per CBR rate (default 1, 5, 10, ...,
    45 Mb/s). *)
