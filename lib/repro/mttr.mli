(** MTTR and packet loss during OSPF reconvergence under node vs link
    failure — the chaos layer's headline experiment.

    The §5.2 Abilene-mirror scenario, but instead of only cutting the
    Denver–Kansas-City virtual link we also crash the Denver {e machine}:
    every process on it dies, neighbours detect the silence via the OSPF
    dead interval and reroute, and after the machine reboots the
    supervisor restarts the Click process under its backoff policy, the
    RIB is replayed into the fresh FIB, and a new OSPF instance re-forms
    adjacencies.  Pings DC -> Seattle measure detection time, packets
    lost, and time for traffic to return to the primary path after repair;
    an invariant {!Vini_measure.Watchdog} runs throughout.  The sweep
    varies the supervisor's base backoff and includes a plain link-cut
    control row. *)

val topology : unit -> Vini_topo.Graph.t
(** The Abilene mirror (same dataset as {!Abilene.topology}). *)

type fault = Node_crash of Vini_phys.Supervisor.policy | Link_cut

type row = {
  label : string;
  detect_s : float;        (** failure -> traffic on the backup path *)
  lost_pings : int;
  recover_s : float;       (** repair -> traffic back on the primary path *)
  restarts : int;          (** supervised restarts performed *)
  watchdog_violations : (string * int) list;
}

val run_one :
  ?seed:int ->
  fault:fault ->
  unit ->
  row * Vini_measure.Watchdog.t * Vini_overlay.Iias.t
(** One run, handing back the watchdog and overlay for fine-grained
    assertions (tests): fail 10 s and repair 25 s into a 50 s
    measurement window (after 40 s of routing warmup), 250 ms pings;
    seed 9301 by default. *)

val sweep : ?seed:int -> ?backoffs:float list -> unit -> row list
(** Node-crash rows for each backoff (default 0.5/2/8 s) plus the
    link-cut control row. *)

val row_strings : row list -> string list
(** A fixed-width table (header first) for [vini mttr] and reports. *)
