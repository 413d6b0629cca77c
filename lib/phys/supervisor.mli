(** Supervised restart of crashed processes — the recovery half of the
    chaos layer.

    Each supervised child gets exponential backoff between restart
    attempts, with deterministic jitter drawn from the seeded RNG, and an
    Erlang-style maximum restart intensity: more than [max_restarts]
    crashes inside [intensity_window] seconds and the supervisor gives up
    on the child for good (traced as a ["give-up"] lifecycle event).

    If the child's {e node} is down when a restart comes due, the attempt
    re-polls at the same backoff without consuming restart budget — the
    machine rebooting is not the process misbehaving.

    The [on_restart] hook runs after {!Process.restart}; the overlay uses
    it to rebuild a router (reinstall the RIB into the fresh FIB, start a
    new OSPF instance that re-forms adjacencies and resyncs the LSDB). *)

type policy = {
  base_backoff : float;      (** first retry delay, seconds *)
  max_backoff : float;       (** backoff ceiling, seconds *)
  jitter_frac : float;       (** uniform jitter, +- this fraction *)
  max_restarts : int;        (** crashes tolerated inside the window *)
  intensity_window : float;  (** seconds *)
}

val default_policy : policy
(** 0.5 s base, 30 s cap, 25% jitter, give up after 5 crashes in 60 s. *)

type t

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t Lazy.t ->
  ?policy:policy ->
  unit ->
  t
(** The RNG is lazy deliberately: it is only forced on the first crash, so
    a supervisor that never restarts anything perturbs no random stream —
    runs with chaos disabled stay bit-identical to unsupervised runs. *)

val supervise :
  t ->
  name:string ->
  ?on_restart:(unit -> unit) ->
  Process.t ->
  unit
(** Watch a process (hooks {!Process.on_crash}) under the supervisor's
    policy. *)

val adopt : t -> name:string -> Process.t -> unit
(** Re-point the child registered under [name] at a replacement process
    (after a migration rebuilt it on another machine).  The child keeps
    its crash history and restart budget but takes the new process's
    name; a restart attempt pending against the old process stands down
    by itself.
    @raise Invalid_argument for an unknown child. *)

val state : t -> name:string -> [ `Running | `Waiting | `Given_up ] option
(** [`Waiting] = dead with a restart pending (or its node still down). *)

val restarts : t -> name:string -> int
(** Successful restarts performed for this child. *)

val given_up : t -> string list
val children : t -> string list
