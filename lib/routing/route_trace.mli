(** Recording and replaying routing traces (§6.2).

    The paper wants VINI experiments drivable by "real world" routing
    measurements: record the stream of route changes a live run produces,
    then replay it later — into another experiment, at another time, or
    against a different data plane.

    A recorder taps a {!Rib}'s FEA stream and timestamps every change; the
    trace serialises to a line-oriented text format:

    {v
    # vini route trace v1
    12.345678 install 10.0.0.3/32 via 10.1.0.2 metric 20 proto ospf
    17.200000 withdraw 10.0.0.3/32
    v}

    Playback schedules the same changes, shifted to start "now", into any
    RIB (under [Static], so replayed routes coexist with — and lose to —
    connected routes). *)

type entry = { at : Vini_sim.Time.t; change : Rib.change }

type recorder

val recorder : engine:Vini_sim.Engine.t -> unit -> recorder

val tap : recorder -> (Rib.change -> unit) -> Rib.change -> unit
(** [tap r fea] wraps a FEA callback: pass [tap r fea] where you would
    pass [fea] and every change is recorded before being forwarded. *)

val entries : recorder -> entry list
(** Chronological. *)

val to_string : entry list -> string
val of_string : string -> (entry list, string) result

val play :
  engine:Vini_sim.Engine.t ->
  rib:Rib.t ->
  ?speed:float ->
  entry list ->
  unit
(** Schedule the trace's changes into [rib] starting now; [speed] > 1
    replays faster than recorded.  Withdraw entries withdraw the replayed
    [Static] candidate. *)
