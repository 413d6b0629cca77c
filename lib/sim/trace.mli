(** Structured, bounded event tracing — the "collect traces of the
    experiment" facility of §6.2, grown up.

    Events are typed and categorized ({!kind}), carry a severity and a
    dotted component path ("click.fwdr.queue"), and land in a fixed-size
    ring buffer, so a trace never grows without bound: once full, the
    oldest events are overwritten (and counted in {!overwritten}).

    Hot paths emit through the {e global sink} ({!install} / {!emit})
    guarded by {!on}, a single mask test that costs ~nothing when no sink
    is installed or the category is disabled — instrumentation can stay in
    packet-rate code.  Timestamps come from the global simulation clock,
    which {!Engine.create} registers automatically ({!set_clock}). *)

type severity = Debug | Info | Warn | Error

val severity_name : severity -> string

(** Event categories, for per-category enable/disable. *)
module Category : sig
  type t =
    | Packet_tx
    | Packet_rx
    | Packet_drop
    | Route_update
    | Sched_latency
    | Fault_injected
    | Process_lifecycle
    | Watchdog
    | Custom

  val all : t list
  val name : t -> string
  val of_name : string -> t option
end

(** What happened.  Each constructor maps to one {!Category.t}. *)
type kind =
  | Packet_tx of { bytes : int }
  | Packet_rx of { bytes : int }
  | Packet_drop of { reason : string; bytes : int }
  | Route_update of { prefix : string; action : string }
  | Sched_latency of { seconds : float }
  | Fault_injected of { action : string }
  | Process_lifecycle of { phase : string; detail : string }
      (** [phase] is one of "crash", "restart", "give-up", "reboot";
          the component path names the process or node. *)
  | Watchdog_check of { check : string; detail : string }
  | Custom of string

val category_of_kind : kind -> Category.t

type event = {
  time : Time.t;
  severity : severity;
  component : string;
  kind : kind;
}

type t

val create : ?capacity:int -> ?categories:Category.t list -> unit -> t
(** A ring buffer of [capacity] events (default 65536) with the given
    categories enabled (default: all).
    @raise Invalid_argument if [capacity <= 0]. *)

val record : ?severity:severity -> t -> component:string -> kind -> unit
(** Append one event (default severity [Info]), stamped with the global
    simulation clock.  No-op if the event's category is disabled. *)

(** {2 The global sink}

    Instrumented subsystems emit here so packet-rate code needs no trace
    handle.  With no sink installed, {!on} is [false] and {!emit} is a
    no-op. *)

val install : t -> unit
val uninstall : unit -> unit

val on : Category.t -> bool
(** One load + mask test: [true] iff a sink is installed {e and} the
    category is enabled on it.  Guard any emission that allocates:
    [if Trace.on Trace.Category.Packet_drop then Trace.emit ...]. *)

val emit : ?severity:severity -> component:string -> kind -> unit

(** {2 Category filtering} *)

val enabled : t -> Category.t -> bool
val enable : t -> Category.t -> unit
val disable : t -> Category.t -> unit

(** {2 Inspection} *)

val length : t -> int
val capacity : t -> int

val overwritten : t -> int
(** Events lost to ring wraparound since the last {!clear}. *)

val events : t -> event list
(** Chronological (oldest retained first). *)

val find : t -> component:string -> event list
val find_cat : t -> Category.t -> event list
val clear : t -> unit

val set_clock : (unit -> Time.t) -> unit
(** Source of event timestamps; registered by {!Engine.create}. *)

val now : unit -> Time.t
(** The registered simulation clock's current time ([Time.zero] before any
    engine exists).  Span instrumentation stamps records with it. *)
