(** A physical machine: kernel network path, host IP stack, CPU scheduler,
    and per-process buffered UDP sockets.

    The kernel path is a single FIFO server: each received or forwarded
    packet occupies it for its (clock-scaled) processing cost, plus a NIC
    interrupt latency per link traversal; that is the whole of the
    "Network" baseline rows in Tables 2–5.  User-space experiments run as
    {!Cpu.proc} processes that read packets from {!Socket} receive buffers
    — the buffers whose overflow produces Figure 6's losses. *)

type t

module Socket : sig
  type s

  val buffer : s -> Vini_net.Packet.t Vini_std.Fifo.t
  (** The receive buffer itself, which the owning process drains
      directly. *)

  val close : s -> unit
  (** Unbind the socket's port; arrivals become unmatched.  The buffer
      keeps its contents. *)

  val reopen : s -> unit
  (** Re-bind the socket's port with its original handler after {!close}.
      @raise Invalid_argument when the port is taken. *)
end

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  id:int ->
  name:string ->
  addr:Vini_net.Addr.t ->
  cpu:Cpu.t ->
  unit ->
  t

val id : t -> int
val name : t -> string
val addr : t -> Vini_net.Addr.t
val cpu : t -> Cpu.t
val engine : t -> Vini_sim.Engine.t
val stack : t -> Ipstack.t
(** The kernel host stack (public address); apps bind ports here. *)

val set_tx : t -> (Vini_net.Packet.t -> unit) -> unit
(** Wire the node's transmit side to the underlay (done by {!Underlay}). *)

(** {2 Whole-node crash and reboot}

    A crashed machine drops every packet on every path — transmit, receive,
    forwarding, local delivery — and kills each attached process.  Reboot
    brings the kernel path back; supervised processes are restarted
    separately (by {!Supervisor}). *)

val is_up : t -> bool

val crash : t -> unit
(** Power off: discard queued kernel work, run every registered process
    kill hook, go dark.  Idempotent while down. *)

val reboot : t -> unit
(** Power on again (processes stay dead until restarted). *)

val attach_process : t -> kill:(unit -> unit) -> unit
(** Register a process kill hook to run when this node crashes. *)

val send : t -> Vini_net.Packet.t -> unit
(** Transmit a packet originated on this node (host app or process). *)

val send_as : t -> cls:string -> Vini_net.Packet.t -> unit
(** Like {!send}, but classified for the egress HTB when one is enabled
    (slices label their traffic with their name). *)

val enable_egress_htb : t -> rate_bps:float -> unit
(** Install an HTB on this node's outgoing traffic (§4.1.1): all locally
    originated packets pass through it before entering the network. *)

val set_egress_class :
  t -> name:string -> ?assured_bps:float -> unit -> unit
(** Declare a class (a slice) with a minimum-rate guarantee.
    @raise Invalid_argument without {!enable_egress_htb} or on duplicates. *)

val egress_class_stats : t -> name:string -> (int * int) option
(** (bytes sent, drops) for a class, when the HTB is enabled. *)

val rx_overhead : t -> Vini_net.Packet.t -> k:(unit -> unit) -> unit
(** Charge NIC latency + kernel processing for a packet arriving on a
    link, then continue.  Used for both local delivery and forwarding.
    Must be called in tail position of the current event callback: the
    NIC and kernel hops are breath-coalesced ({!Vini_sim.Engine.at_inline})
    when nothing else is due first. *)

val deliver_local : ?inline:bool -> t -> Vini_net.Packet.t -> unit
(** Arrival overheads, then demux into the host stack (which may hand the
    packet to a bound socket or answer ICMP).  Pass [~inline:true] only
    from the tail of an event callback (a plink arrival, a kernel-work
    continuation): it lets the NIC hop join the current breath.  The
    default schedules a real calendar event and is safe anywhere. *)

val kernel_cpu_time : t -> Vini_sim.Time.t
(** Total kernel CPU consumed (forwarding + local delivery). *)

val open_udp_socket :
  t -> port:int -> ?rcvbuf_bytes:int -> on_packet:(unit -> unit) -> unit -> Socket.s
(** A buffered UDP socket for a user-space process; [on_packet] fires on
    each successful enqueue (typically {!Cpu.kick}).
    @raise Invalid_argument when the port is taken. *)
