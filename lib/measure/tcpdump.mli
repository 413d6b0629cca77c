(** tcpdump-style capture for flow plots.

    Figure 9 plots (a) cumulative megabytes delivered over time and (b)
    the stream position of each arriving segment during slow-start
    restart.  This module hooks a TCP endpoint and records exactly those
    two series. *)

type t

val create : Vini_sim.Engine.t -> t

val attach : t -> Vini_transport.Tcp.t -> unit
(** Capture segments arriving at (and bytes delivered by) this endpoint. *)

val cumulative_bytes : t -> (float * int) list
(** (seconds, total in-order bytes delivered so far), per delivery event. *)

val segment_positions : t -> (float * int) list
(** (arrival time s, segment's stream offset) for data segments —
    Figure 9(b)'s scatter. *)

val packets : t -> (float * int * string) list
(** All captured packets as (time, packet id, one-line description).  The
    id keys into the flight recorder: grep a capture row's id in a
    [vini.spans/1] export to pull up the packet's causal tree. *)

val count : t -> int
