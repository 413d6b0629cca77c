(** Ablations of the design decisions the paper's evaluation leans on.

    Three questions the tables imply but never decompose:

    - {b Which PL-VINI knob does the work?}  §4.1.2 adds two CPU-scheduler
      features at once — the 25% reservation and the real-time priority
      boost.  {!scheduler_knobs} measures all four combinations.
    - {b Is Figure 6's loss really socket-buffer overflow?}  The paper
      hypothesises the mechanism (§5.1.2); {!buffer_sweep} varies the
      buffer size and watches the loss move.
    - {b What does the dead interval buy?}  §5.2 runs one timer setting;
      {!timer_sweep} shows detection delay tracking the configured dead
      interval across settings. *)

type knob_result = {
  label : string;
  mbps : float;
  ping_avg_ms : float;
  ping_mdev_ms : float;
}

val scheduler_knobs : ?duration_s:int -> unit -> knob_result list
(** Fair share, reservation-only, rt-only, and both (PL-VINI), each
    measured like Table 4/5 on the PlanetLab chain. *)

val buffer_sweep : ?duration_s:int -> unit -> (int * float) list
(** (buffer KB, loss %) at 35 Mb/s CBR on a default-share slice, for
    16, 32, 64, 128 and 256 KB buffers. *)

val timer_sweep : unit -> (int * int * float) list
(** (hello s, dead s, measured detection delay s) on the Abilene mirror,
    for hello/dead timers of 1/4, 2/6, 5/10 and 10/25 s. *)

val isolation_matrix : unit -> knob_result list
(** §3.4's isolation story, quantified: a measuring experiment shares
    three nodes with a noisy one blasting 60 Mb/s of UDP.  Four
    configurations: no isolation at all, CPU isolation only (PL-VINI
    scheduler knobs), bandwidth isolation only (per-slice HTB with an
    assured rate, §4.1.1), and both. *)
