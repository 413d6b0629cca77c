type control = ..

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }
type echo = { ident : int; icmp_seq : int; sent_ns : int; data_len : int }

type icmp =
  | Echo_request of echo
  | Echo_reply of echo
  | Time_exceeded of { orig_src : Addr.t; orig_dst : Addr.t }
  | Dest_unreachable of { orig_src : Addr.t; orig_dst : Addr.t }

type probe = { flow : int; seq : int; sent_ns : int; pad : int }

type tcp = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : tcp_flags;
  window : int;
  payload_len : int;
  sent_ns : int;
}

type body =
  | Bytes_ of int
  | Tunnel of t
  | Vpn of t
  | Probe of probe
  | Control of { size : int; msg : control }

and udp = { usport : int; udport : int; body : body }
and proto = Udp of udp | Tcp of tcp | Icmp of icmp

and t = {
  id : int;
  orig : int;
  src : Addr.t;
  dst : Addr.t;
  ttl : int;
  proto : proto;
  corrupt : bool;
  len : int;
}

let default_ttl = 64
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* Sizes are computed once, at construction, and cached in [t.len]:
   every element and link on the forwarding path charges bytes per hop,
   so [size] must be O(1) regardless of encapsulation depth.  Nested
   packets already carry their own cached length, so even construction
   is O(1) in the nesting. *)

let size t = t.len

let rec proto_size = function
  | Udp u -> Wire.udp_header + body_size u.body
  | Tcp seg -> Wire.tcp_header + seg.payload_len
  | Icmp i -> Wire.icmp_header + icmp_size i

and body_size = function
  | Bytes_ n -> n
  | Tunnel inner -> inner.len
  | Vpn inner ->
      (* Crypto framing beyond the outer IP+UDP already accounted for. *)
      inner.len + (Wire.openvpn_overhead - Wire.ipv4_header - Wire.udp_header)
  | Probe p -> Int.max p.pad 12
  | Control c -> c.size

and icmp_size = function
  | Echo_request e | Echo_reply e -> e.data_len
  | Time_exceeded _ | Dest_unreachable _ ->
      (* Quoted IP header + 8 bytes of the offending datagram. *)
      Wire.ipv4_header + 8

(* A fresh packet is its own provenance root; encapsulation sites and ICMP
   error generators pass [?orig] so the flight recorder can stitch the
   outer frame's spans onto the inner packet's causal tree. *)
let provenance id = function Some o -> o | None -> id

let udp ?(ttl = default_ttl) ?orig ~src ~dst ~sport ~dport body =
  let id = fresh_id () in
  let proto = Udp { usport = sport; udport = dport; body } in
  { id; orig = provenance id orig; src; dst; ttl; corrupt = false; proto;
    len = Wire.ipv4_header + proto_size proto }

let tcp ~src ~dst seg =
  let id = fresh_id () in
  { id; orig = id; src; dst; ttl = default_ttl; corrupt = false;
    proto = Tcp seg; len = Wire.ipv4_header + proto_size (Tcp seg) }

let icmp ?(ttl = default_ttl) ?orig ~src ~dst msg =
  let id = fresh_id () in
  { id; orig = provenance id orig; src; dst; ttl; corrupt = false;
    proto = Icmp msg; len = Wire.ipv4_header + proto_size (Icmp msg) }

let corrupted t = { t with corrupt = true }

(* The on-the-wire IPv4 header image, with the header checksum folded into
   its slot (bytes 10-11).  A corrupted packet gets one byte damaged *after*
   checksumming, so [Wire.checksum_valid] fails on it at the receiver — the
   same way real corruption is caught. *)
let write_header b t =
  Bytes.fill b 0 Wire.ipv4_header '\000';
  let set16 off v =
    Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set b (off + 1) (Char.chr (v land 0xFF))
  in
  Bytes.set b 0 '\x45' (* version 4, IHL 5 *);
  set16 2 (size t land 0xFFFF);
  set16 4 (t.id land 0xFFFF);
  Bytes.set b 8 (Char.chr (t.ttl land 0xFF));
  let a = Addr.to_int t.src in
  set16 12 ((a lsr 16) land 0xFFFF);
  set16 14 (a land 0xFFFF);
  let a = Addr.to_int t.dst in
  set16 16 ((a lsr 16) land 0xFFFF);
  set16 18 (a land 0xFFFF);
  set16 10 (Wire.checksum b);
  if t.corrupt then Bytes.set b 8 (Char.chr ((t.ttl lxor 0x40) land 0xFF))

(* Decapsulation verifies every tunnelled frame, so [intact] runs once per
   forwarded packet.  The wire-image check below materialises the header
   and validates its checksum; because [write_header] damages exactly one
   byte after checksumming when [t.corrupt] is set (and none otherwise),
   its verdict is always [not t.corrupt] — a single 16-bit word changed by
   a nonzero delta cannot keep a ones'-complement sum valid.  The hot path
   uses the flag directly; [intact_wire] keeps the checksum route alive so
   a test can assert the equivalence on arbitrary packets. *)
let intact_scratch = Bytes.make Wire.ipv4_header '\000'

let intact_wire t =
  write_header intact_scratch t;
  Wire.checksum_valid intact_scratch

let intact t = not t.corrupt

let decr_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }
let with_src t src = { t with src }
let with_dst t dst = { t with dst }

let with_udp_ports t ~sport ~dport =
  match t.proto with
  | Udp u -> { t with proto = Udp { u with usport = sport; udport = dport } }
  | Tcp _ | Icmp _ -> invalid_arg "Packet.with_udp_ports: not UDP"

let with_tcp_ports t ~sport ~dport =
  match t.proto with
  | Tcp seg -> { t with proto = Tcp { seg with sport; dport } }
  | Udp _ | Icmp _ -> invalid_arg "Packet.with_tcp_ports: not TCP"

let flags_to_string f =
  let b = Buffer.create 4 in
  if f.syn then Buffer.add_char b 'S';
  if f.fin then Buffer.add_char b 'F';
  if f.rst then Buffer.add_char b 'R';
  if f.ack then Buffer.add_char b '.';
  if Buffer.length b = 0 then "-" else Buffer.contents b

let rec pp ppf t =
  match t.proto with
  | Udp u -> (
      match u.body with
      | Tunnel inner ->
          Format.fprintf ppf "%a.%d > %a.%d: TUNNEL[%a]" Addr.pp t.src u.usport
            Addr.pp t.dst u.udport pp inner
      | Vpn inner ->
          Format.fprintf ppf "%a.%d > %a.%d: VPN[%a]" Addr.pp t.src u.usport
            Addr.pp t.dst u.udport pp inner
      | Control c ->
          Format.fprintf ppf "%a.%d > %a.%d: CTRL %d bytes" Addr.pp t.src
            u.usport Addr.pp t.dst u.udport c.size
      | Probe p ->
          Format.fprintf ppf "%a.%d > %a.%d: UDP probe flow %d seq %d" Addr.pp
            t.src u.usport Addr.pp t.dst u.udport p.flow p.seq
      | Bytes_ n ->
          Format.fprintf ppf "%a.%d > %a.%d: UDP %d bytes" Addr.pp t.src
            u.usport Addr.pp t.dst u.udport n)
  | Tcp seg ->
      Format.fprintf ppf "%a.%d > %a.%d: TCP %s seq %d ack %d win %d len %d"
        Addr.pp t.src seg.sport Addr.pp t.dst seg.dport
        (flags_to_string seg.flags) seg.seq seg.ack seg.window seg.payload_len
  | Icmp (Echo_request e) ->
      Format.fprintf ppf "%a > %a: ICMP echo request seq %d" Addr.pp t.src
        Addr.pp t.dst e.icmp_seq
  | Icmp (Echo_reply e) ->
      Format.fprintf ppf "%a > %a: ICMP echo reply seq %d" Addr.pp t.src
        Addr.pp t.dst e.icmp_seq
  | Icmp (Time_exceeded o) ->
      Format.fprintf ppf "%a > %a: ICMP time exceeded (orig %a > %a)" Addr.pp
        t.src Addr.pp t.dst Addr.pp o.orig_src Addr.pp o.orig_dst
  | Icmp (Dest_unreachable o) ->
      Format.fprintf ppf "%a > %a: ICMP unreachable (orig %a > %a)" Addr.pp
        t.src Addr.pp t.dst Addr.pp o.orig_src Addr.pp o.orig_dst

let describe t = Format.asprintf "%a" pp t
