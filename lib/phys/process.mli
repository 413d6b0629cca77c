(** A user-space networking process in a slice (a Click or routing daemon).

    Owns a set of buffered UDP sockets on its node, drains them round-robin
    under the node's CPU scheduler, and hands each packet to a handler
    together with a per-packet CPU cost function.  The default cost is the
    calibrated Click user-space cost (syscalls + copies, §5.1.1), scaled to
    the node's clock. *)

type t

val create :
  node:Pnode.t ->
  slice:Slice.t ->
  name:string ->
  ?cost_of:(Vini_net.Packet.t -> Vini_sim.Time.t) ->
  ?burst:int ->
  handler:(Vini_net.Packet.t -> unit) ->
  unit ->
  t
(** [cost_of] quotes CPU cost at the {e reference} clock; it is scaled to
    the node automatically.  Default: {!Calibration.click_cost_us} of the
    packet size.

    [burst] (default 1) is the batched-data-plane knob: each CPU service
    slice drains up to [burst] packets from the chosen input source in
    one scheduler event, charged the {e sum} of their per-packet costs up
    front.  [burst = 1] reproduces the classic one-event-per-packet
    schedule exactly; higher values deliver the same packets in the same
    per-source order with the same total CPU time but collapse the
    per-packet event and wakeup overhead — schedules (and thus span
    timestamps) differ from the [burst = 1] run, deterministically per
    seed.  Within a burst, each packet's Cpu_service span covers its own
    cost-proportional slice of the service window (the window tiles
    exactly, in service order), so per-hop attribution stays exact under
    bursting.
    @raise Invalid_argument when [burst < 1]. *)

val open_socket : t -> port:int -> ?rcvbuf_bytes:int -> unit -> Pnode.Socket.s
(** A socket whose arrivals wake this process. *)

val open_queue : t -> unit -> (Vini_net.Packet.t -> bool)
(** A local bounded input queue served by the process alongside its
    sockets, bounded like a default socket buffer
    ({!Calibration.udp_rcvbuf_bytes}); the returned injector enqueues a packet and wakes the process
    ([false] = queue full, packet dropped).  Models the tap device and the
    UML switch feeding Click from the same node. *)

val set_handler : t -> (Vini_net.Packet.t -> unit) -> unit

(** {2 Lifecycle}

    A process can crash — explicitly, via a chaos fault, or because its
    node crashed — and be restarted later.  While dead it is invisible to
    the CPU scheduler, its sockets are unbound and its queues reject
    injections; nothing buffered survives the crash. *)

val alive : t -> bool

val crash : t -> unit
(** Close and drain every source, go dark, and run the {!on_crash} hooks.
    Idempotent while dead.  Emits a [Process_lifecycle] trace event. *)

val restart : t -> unit
(** Come back up with empty buffers and freshly bound sockets.
    @raise Invalid_argument if already running or the node is down. *)

val retire : t -> unit
(** Planned shutdown: close sockets and drop queued input like {!crash},
    but do {e not} run the {!on_crash} hooks — the exit is expected, so
    the supervisor must not burn restart budget on it and the overlay must
    not tear down state the replacement process still uses.  Emits a
    [Process_lifecycle] "retire" trace event.  Idempotent while dead. *)

val pending_packets : t -> int
(** Packets currently buffered across this process's sockets and queues —
    what a {!retire} at this instant would silently discard.  A live
    migration counts this at drain-complete as residual cutover loss. *)

val on_crash : t -> (unit -> unit) -> unit
(** Register a hook to run (in registration order) on each crash — how the
    overlay tears down routing state and the supervisor schedules a
    restart. *)

val crashes : t -> int
val restarts : t -> int

val node : t -> Pnode.t
val name : t -> string
val cpu_time : t -> Vini_sim.Time.t
val wakeups : t -> int
val packets_processed : t -> int

val breaths : t -> int
(** Service slices that drained at least one packet.  Breath utilization
    is [packets_processed / (breaths * burst)] — how full the bursts the
    scheduler granted actually ran. *)

val burst : t -> int
(** The burst size this process was created with. *)

val socket_drops : t -> int
(** Total receive-buffer drops across this process's sockets. *)
