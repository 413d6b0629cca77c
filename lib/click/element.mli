(** Click-style packet-processing elements.

    An element is a named push port with packet/byte counters; elements
    compose into the per-virtual-node data planes of Figure 1.  Processing
    inside a data plane is synchronous — the hosting user-space process has
    already been charged the per-packet CPU cost by [Vini_phys] — so
    elements stay pure plumbing with observable statistics.

    {2 The batch contract}

    Elements accept work one packet at a time ({!push}) or as a burst
    ({!push_batch}).  The two entry points are observationally
    equivalent: statistics, trace events, and flight-recorder spans are
    per packet on both, and a chain delivers the same packets in the
    same order whether driven packet-by-packet or in bursts (property-
    tested).  Batching changes only the {e cost}: one scheduler event, a
    handful of virtual calls, and at most one FIB-memo refresh serve up
    to N packets instead of one.

    Ownership during a burst: the packets in the batch belong to the
    chain while [push_batch] runs.  An element either consumes a packet
    (delivers it, drops it via {!drop}, recycles it to a
    {!Vini_net.Pool}), replaces it in the batch ({!Batch.set} — how a
    corrupting fault swaps in a damaged copy), or passes the batch on.
    An element must never hold a reference to a batched packet past the
    burst: the driver reuses the batch (and the pool reuses recycled
    packets) on the next breath. *)

type t

val make : string -> (Vini_net.Packet.t -> unit) -> t
(** A per-packet element.  Under {!push_batch} its function is applied to
    each packet of the burst in order — correct for any element, it just
    forgoes the amortisation a batch-aware body gets. *)

val make_batch :
  string ->
  single:(Vini_net.Packet.t -> unit) ->
  batch:(Batch.t -> unit) ->
  t
(** A batch-aware element: [single] serves {!push}, [batch] serves
    {!push_batch}.  The two bodies must be observationally equivalent
    (same forwarding decisions, same order, same RNG draw sequence when
    randomised) — the batched/unbatched equivalence property quantifies
    over whole chains and holds only if every element keeps this
    contract. *)

val push : t -> Vini_net.Packet.t -> unit
(** Counts the packet and, when the [Packet_tx] trace category is live,
    emits a trace event under this element's name. *)

val push_batch : t -> Batch.t -> unit
(** Push a whole burst.  Counts every packet (and emits its per-packet
    trace/span events) exactly as {!push} would, then runs the
    batch-aware body, or falls back to the per-packet function in batch
    order.  Steady-state allocation-free when tracing and spans are off
    and the element bodies are. *)

val pump : Ring.t -> into:Batch.t -> out:t -> max:int -> int
(** One breath: clear [into], move up to [max] packets from the ring into
    it ({!Ring.pop_into}), and push the burst through [out].  Returns the
    number of packets moved (0 when the ring was empty — the chain is not
    entered).  This is the function a scheduler event calls to drive a
    burst through a whole chain. *)

val drop : t -> reason:string -> Vini_net.Packet.t -> unit
(** Count a drop, and record [reason] on the [Packet_drop] trace event and
    the drop span when those are live.  The packet is {e not} forwarded. *)

val name : t -> string
val packets : t -> int
val bytes : t -> int

val discard : string -> t
(** Count-and-drop sink. *)

val tee : string -> t list -> t
(** Duplicate each packet to every downstream element. *)

val classifier :
  string -> rules:((Vini_net.Packet.t -> bool) * t) list -> default:t -> t
(** First matching rule wins. *)

val queue : string -> ?capacity_bytes:int -> out:t -> unit -> t
(** Drop-tail queue that forwards immediately (occupancy is transient in
    the synchronous data plane, but drops still enforce the bound and the
    counters feed tests). *)

val queue_drops : t -> int
(** Drops recorded by a {!queue}, {!shaper_drops} for shapers; 0 for other
    elements. *)
