(** Token-bucket traffic shaper element.

    The mechanism §6.2 proposes for letting experimenters set virtual-link
    capacities inside Click.  Packets exceeding the configured rate are
    queued (bounded, drop-tail) and released on schedule by the simulation
    engine. *)

type t

val create :
  engine:Vini_sim.Engine.t ->
  rate_bps:float ->
  ?burst_bytes:int ->
  ?queue_bytes:int ->
  out:Element.t ->
  string ->
  t

val element : t -> Element.t
(** The push port to wire upstream. *)

val set_rate : t -> float -> unit
val drops : t -> int
