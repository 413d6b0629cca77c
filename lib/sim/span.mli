(** Per-packet flight recorder — the hot half of causal span tracing.

    Every packet carries a unique id and a provenance id ([orig], the id
    of the root packet it encapsulates or answers for); each layer it
    crosses appends one flat {!record} here: an {!Origin} where it enters
    the system, a {!Hop} for every place it spends time, and — if it dies
    — a {!Drop} naming the site and reason.  Reassembling those flat
    records into causal trees, attributing per-hop latency, and producing
    drop forensics is the cold half's job ([Vini_measure.Span]); this
    module only appends into a bounded ring.

    {2 Attribution}

    Each hop charges its duration to exactly one category, the §5.1.2
    decomposition the paper needed to explain PlanetLab loss:

    - {!Queueing} — waiting in a fifo/shaper/HTB class/socket buffer/run
      queue before service began;
    - {!Cpu_service} — a user-space or kernel CPU slice spent on the
      packet (Click element graph execution, kernel forwarding);
    - {!Serialization} — occupying a link at its line rate;
    - {!Propagation} — in flight on the wire;
    - {!Proto_processing} — protocol work recorded as an instant
      (element handoffs, FIB lookup, encap/decap, local delivery).

    {2 Overhead discipline}

    Recording is on exactly while a recorder is {!install}ed.  The test
    {!on} is a single load of the installed-recorder ref, so
    instrumentation can sit directly on the packet hot path; the perf
    suite gates the disabled-path cost at ≤ 2% on the §5.1.1 end-to-end
    replay.  The ring never grows: once
    full, the oldest records are overwritten (counted in
    {!overwritten}).  A packet's lifetime is tiny compared to the ring's
    span, so a drop's path-so-far survives wraparound in practice. *)

(** Where one hop's duration is charged. *)
type attribution =
  | Queueing
  | Cpu_service
  | Propagation
  | Serialization
  | Proto_processing

val attribution_name : attribution -> string
val attribution_of_name : string -> attribution option

val attributions : attribution list
(** All categories, in a stable display order. *)

(** One flat flight-recorder record.  [pkt] is the concrete packet's id
    (outer frame after encapsulation); [orig] is the provenance id that
    keys the causal tree — equal to [pkt] for root packets, inherited
    across tunnel/VPN encapsulation and ICMP error generation. *)
type record =
  | Origin of {
      pkt : int;
      orig : int;
      bytes : int;
      component : string;
      t : Time.t;
    }  (** The packet entered the system here (TCP/UDP source, OpenVPN
           ingress, routing-protocol emitter). *)
  | Hop of {
      pkt : int;
      orig : int;
      component : string;
      attribution : attribution;
      t0 : Time.t;
      t1 : Time.t;
    }  (** The packet spent [t1 - t0] at [component], charged to
           [attribution].  Instants have [t0 = t1]. *)
  | Drop of {
      pkt : int;
      orig : int;
      component : string;
      reason : string;
      bytes : int;
      t : Time.t;
    }  (** The packet died at [component]; [reason] matches the
           [Trace.Packet_drop] reason emitted at the same site. *)

type t

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] records (default 262144).
    @raise Invalid_argument if [capacity <= 0]. *)

(** {2 The global recorder}

    Mirrors the {!Trace} global-sink pattern: hot paths emit through the
    installed recorder so packet-rate code needs no handle. *)

val install : t -> unit
(** Install [t] as the global recorder, which turns recording on. *)

val uninstall : unit -> unit

val on : unit -> bool
(** One load: [true] iff a recorder is installed.  Guard every emission
    with it. *)

(** {2 Emitters}

    All are no-ops without an installed recorder; callers still guard
    with {!on} so argument computation is skipped on the disabled path.
    Timestamps come from the global simulation clock ({!Trace.now}). *)

val origin :
  pkt:int -> orig:int -> bytes:int -> component:string -> unit -> unit

val hop :
  pkt:int ->
  orig:int ->
  component:string ->
  attribution ->
  t0:Time.t ->
  t1:Time.t ->
  unit

val instant : pkt:int -> orig:int -> component:string -> attribution -> unit
(** A zero-duration hop at the current time — marks protocol-processing
    waypoints so drop forensics can show the path even where no time
    passes in simulation. *)

val drop :
  pkt:int ->
  orig:int ->
  component:string ->
  reason:string ->
  bytes:int ->
  unit ->
  unit

(** {2 Queue-wait helpers}

    Queues record waits without threading timestamps through their
    elements: {!note_enqueue} stamps the packet id on entry and
    {!dequeue_hop} closes a {!Queueing} hop on exit (at [until] if given,
    else now).  Nothing is recorded for zero waits or unknown ids. *)

val note_enqueue : pkt:int -> unit
val dequeue_hop :
  pkt:int -> orig:int -> component:string -> ?until:Time.t -> unit -> unit

(** {2 Inspection} *)

val length : t -> int
val capacity : t -> int

val overwritten : t -> int
(** Records lost to ring wraparound since the last {!clear}. *)

val records : t -> record list
(** Chronological (oldest retained first). *)

val clear : t -> unit
val record_pkt : record -> int
val record_orig : record -> int
