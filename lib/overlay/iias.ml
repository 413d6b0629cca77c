module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Span = Vini_sim.Span
module Packet = Vini_net.Packet
module Addr = Vini_net.Addr
module Prefix = Vini_net.Prefix
module Wire = Vini_net.Wire
module Graph = Vini_topo.Graph
module Pnode = Vini_phys.Pnode
module Process = Vini_phys.Process
module Ipstack = Vini_phys.Ipstack
module Underlay = Vini_phys.Underlay
module Supervisor = Vini_phys.Supervisor
module Fib = Vini_click.Fib
module Element = Vini_click.Element
module Batch = Vini_click.Batch
module Faulty = Vini_click.Faulty
module Shaper = Vini_click.Shaper
module Napt = Vini_click.Napt
module Rib = Vini_routing.Rib
module Io = Vini_routing.Io
module Ospf = Vini_routing.Ospf
module Rip = Vini_routing.Rip

type routing_choice =
  | Static_routes
  | Ospf_routing of { hello : Time.t; dead : Time.t; spf_delay : Time.t }
  | Rip_routing of { scale : float }

let default_ospf =
  Ospf_routing { hello = Time.sec 5; dead = Time.sec 10; spf_delay = Time.ms 200 }

let private_space = Prefix.of_string "10.0.0.0/8"

(* What the FIB tells the data plane to do with a destination. *)
type action =
  | Deliver                 (* terminate here (tap / ingress / egress) *)
  | Direct                  (* connected subnet: encapsulate to dst itself *)
  | Via of Addr.t           (* encapsulate to this next-hop virtual addr *)

let action_name = function
  | Deliver -> "deliver"
  | Direct -> "direct"
  | Via a -> "via " ^ Addr.to_string a

type tunnel = {
  nbr : int;
  local_vaddr : Addr.t;
  remote_vaddr : Addr.t;
  faulty : Faulty.t;
  to_wire : Element.t;              (* final ToTunnel element *)
  tail : Element.t ref;             (* faulty's downstream: shaper or wire *)
  mutable vshaper : Shaper.t option;
  iface : Io.iface;
}

type vstats = {
  forwarded : int;
  delivered : int;
  no_route : int;
  ttl_drops : int;
  napt_out : int;
  napt_in : int;
  vpn_in : int;
  vpn_out : int;
  tunnel_drops : int;
  corrupt_drops : int;
}

type vnode = {
  vid : int;
  vnode_name : string;
  slice_name : string;
  (* The hosting machine, Click process, and per-host state are mutable:
     a migration (crash-driven re-embedding) rebuilds all three on another
     machine while every closure that needs them dereferences the vnode at
     call time. *)
  mutable node : Pnode.t;
  mutable proc : Process.t;
  mutable ctrl_inject : Packet.t -> bool;
  mutable tap_inject : Packet.t -> bool;
  tap_stack : Ipstack.t;
  vtap_addr : Addr.t;
  fib : action Fib.t;
  vrib : Rib.t;
  mutable napt : Napt.t;
  tunnels : tunnel list;
  connected_actions : (Prefix.t, action) Hashtbl.t;
  vpn_clients : (Addr.t, Addr.t * int) Hashtbl.t;
  mutable ingress_pool : Prefix.t option;
  mutable extra_locals : (Prefix.t * bool) list; (* (prefix, advertised) *)
  mutable next_vpn_host : int;
  mutable egress : bool;
  mutable vospf : Ospf.t option;
  mutable vrip : Rip.t option;
  mutable control_hooks :
    (src:Addr.t -> ifindex:int -> Packet.control -> unit) list;
  bound_napt_ports : (int * int, unit) Hashtbl.t; (* (0=udp|1=tcp, port) *)
  mutable n_forwarded : int;
  mutable n_delivered : int;
  mutable n_no_route : int;
  mutable n_ttl : int;
  mutable n_napt_out : int;
  mutable n_napt_in : int;
  mutable n_vpn_in : int;
  mutable n_vpn_out : int;
  mutable n_corrupt : int;
  (* Batched-path FIB-memo effectiveness: lookups resolved by the
     same-destination memo in [route_batch] vs. total batched lookups. *)
  mutable n_fib_memo_hits : int;
  mutable n_fib_memo_lookups : int;
  (* During a live migration's [flip, drain-complete] window the FIB is
     shared by the old and new Click processes, so RIB-driven changes are
     deferred (newest first) and replayed when the drain ends. *)
  mutable fib_frozen : bool;
  mutable deferred_fib : Rib.change list;
}

(* An in-flight make-before-break migration: the replacement process
   pre-cloned (double-provisioned) on the target machine, awaiting the
   flip. *)
type pending_mig = {
  pm_target : int;
  pm_proc : Process.t;
  pm_ctrl : Packet.t -> bool;
  pm_tap : Packet.t -> bool;
  pm_old_proc : Process.t;
  mutable pm_flipped : bool;
  mutable pm_base : int; (* vnode drop census at the flip instant *)
}

type t = {
  underlay : Underlay.t;
  engine : Engine.t;
  slice : Vini_phys.Slice.t;
  vtopo : Graph.t;
  routing : routing_choice;
  tunnel_port : int;
  tunnel_rcvbuf_bytes : int;
  click_burst : int;
  placement : int array;  (* vnode id -> current physical node id *)
  mutable vnodes : vnode array;
  rng : Vini_std.Rng.t;
  mutable started : bool;
  mutable supervisor : Supervisor.t option;
  pending_migs : (int, pending_mig) Hashtbl.t; (* vnode id -> in-flight *)
}

(* --- address plan ----------------------------------------------------- *)

let tap_addr_of vid = Addr.of_octets 10 0 (vid / 250) ((vid mod 250) + 1)

let link_subnet k =
  Prefix.make (Addr.of_octets 10 1 (k / 64) ((k mod 64) * 4)) 30

(* Translate one RIB change into the vnode's Click FIB — the FEA's apply
   step, also used to replay changes deferred across a migration drain. *)
let apply_fib_change vn (change : Rib.change) =
  match change with
  | Rib.Install (p, r) ->
      let action =
        if r.Rib.proto = Rib.Connected then
          Option.value
            (Hashtbl.find_opt vn.connected_actions p)
            ~default:Deliver
        else Via r.Rib.next_hop
      in
      Fib.add vn.fib p action
  | Rib.Withdraw p -> Fib.remove vn.fib p

(* --- data plane -------------------------------------------------------- *)

let is_local_vaddr vn dst =
  Addr.equal dst vn.vtap_addr
  || List.exists (fun tun -> Addr.equal dst tun.local_vaddr) vn.tunnels

let tunnel_towards vn vaddr =
  List.find_opt
    (fun tun ->
      Addr.equal tun.remote_vaddr vaddr || Addr.equal tun.local_vaddr vaddr)
    vn.tunnels

let dispatch_control vn (pkt : Packet.t) msg =
  (* Which interface did this arrive on?  Match the sender's address. *)
  let ifindex =
    match
      List.find_opt (fun tun -> Addr.equal pkt.Packet.src tun.remote_vaddr)
        vn.tunnels
    with
    | Some tun -> tun.iface.Io.ifindex
    | None -> -1
  in
  (match vn.vospf with Some o -> Ospf.receive o ~ifindex msg | None -> ());
  (match vn.vrip with Some r -> Rip.receive r ~ifindex msg | None -> ());
  List.iter (fun f -> f ~src:pkt.Packet.src ~ifindex msg) vn.control_hooks

let click_comp vn =
  Printf.sprintf "%s/click@%s" vn.slice_name (Pnode.name vn.node)

let drop_span vn (pkt : Packet.t) ~reason =
  if Span.on () then
    Span.drop ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
      ~component:(click_comp vn) ~reason ~bytes:(Packet.size pkt) ()

(* Every unroutable-packet site funnels here so the flight recorder sees
   one canonical "no-route" drop with the vnode's path-so-far. *)
let no_route vn (pkt : Packet.t) =
  vn.n_no_route <- vn.n_no_route + 1;
  drop_span vn pkt ~reason:"no-route"

let rec route vn (pkt : Packet.t) =
  if Span.on () then
    Span.instant ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
      ~component:(click_comp vn ^ "/fib") Span.Proto_processing;
  match Fib.lookup vn.fib pkt.Packet.dst with
  | None -> no_route vn pkt
  | Some Deliver -> deliver_local vn pkt
  | Some Direct -> forward vn pkt.Packet.dst pkt
  | Some (Via nh) -> forward vn nh pkt

and forward vn nh pkt =
  match Packet.decr_ttl pkt with
  | None ->
      vn.n_ttl <- vn.n_ttl + 1;
      drop_span vn pkt ~reason:"ttl-expired";
      (* The notice inherits the dying packet's provenance: the expiry
         and the resulting ICMP share one causal tree. *)
      let notice =
        Packet.icmp ~orig:pkt.Packet.orig ~src:vn.vtap_addr ~dst:pkt.Packet.src
          (Packet.Time_exceeded
             { orig_src = pkt.Packet.src; orig_dst = pkt.Packet.dst })
      in
      route vn notice
  | Some pkt -> emit vn nh pkt 4

(* Recursive next-hop resolution: a BGP next hop is a remote address that
   the IGP knows how to reach, not a directly connected neighbour — chase
   it through the FIB (bounded depth) until it lands on a tunnel. *)
and emit vn nh pkt depth =
  match tunnel_towards vn nh with
  | Some tun ->
      vn.n_forwarded <- vn.n_forwarded + 1;
      Element.push (Faulty.element tun.faulty) pkt
  | None when depth > 0 -> (
      match Fib.lookup vn.fib nh with
      | Some (Via nh2) when not (Addr.equal nh2 nh) -> emit vn nh2 pkt (depth - 1)
      | Some Direct | Some (Via _) | Some Deliver | None -> no_route vn pkt)
  | None -> no_route vn pkt

and deliver_local vn (pkt : Packet.t) =
  (* Routing-protocol traffic terminates in the control plane. *)
  let control_msg =
    match pkt.Packet.proto with
    | Packet.Udp { body = Packet.Control c; _ } -> Some c.msg
    | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ -> None
  in
  match control_msg with
  | Some msg -> dispatch_control vn pkt msg
  | None ->
      if
        is_local_vaddr vn pkt.Packet.dst
        || List.exists
             (fun (p, _) -> Prefix.contains p pkt.Packet.dst)
             vn.extra_locals
      then begin
        vn.n_delivered <- vn.n_delivered + 1;
        Ipstack.deliver vn.tap_stack pkt
      end
      else begin
        let in_pool =
          match vn.ingress_pool with
          | Some pool -> Prefix.contains pool pkt.Packet.dst
          | None -> false
        in
        if in_pool then vpn_out vn pkt
        else if (not (Prefix.contains private_space pkt.Packet.dst)) && vn.egress
        then napt_out vn pkt
        else no_route vn pkt
      end

and vpn_out vn pkt =
  match Hashtbl.find_opt vn.vpn_clients pkt.Packet.dst with
  | None -> no_route vn pkt
  | Some (client_pub, client_port) ->
      vn.n_vpn_out <- vn.n_vpn_out + 1;
      (* OpenVPN encapsulation: the outer frame continues the inner
         packet's causal tree. *)
      let outer =
        Packet.udp ~orig:pkt.Packet.orig ~src:(Pnode.addr vn.node)
          ~dst:client_pub ~sport:Wire.openvpn_port ~dport:client_port
          (Packet.Vpn pkt)
      in
      if Span.on () then
        Span.instant ~pkt:outer.Packet.id ~orig:outer.Packet.orig
          ~component:(click_comp vn ^ "/vpn-encap") Span.Proto_processing;
      Pnode.send_as vn.node ~cls:vn.slice_name outer

and napt_out vn pkt =
  match Napt.translate_out vn.napt pkt with
  | None -> no_route vn pkt
  | Some out ->
      vn.n_napt_out <- vn.n_napt_out + 1;
      if Span.on () then
        Span.instant ~pkt:out.Packet.id ~orig:out.Packet.orig
          ~component:(click_comp vn ^ "/napt") Span.Proto_processing;
      ensure_napt_binding vn out;
      Pnode.send_as vn.node ~cls:vn.slice_name out

and ensure_napt_binding vn (out : Packet.t) =
  (* Return traffic to the translated port must re-enter the Click
     process rather than the kernel's unmatched-packet bin. *)
  let bind_kind kind port binder =
    if not (Hashtbl.mem vn.bound_napt_ports (kind, port)) then begin
      Hashtbl.replace vn.bound_napt_ports (kind, port) ();
      binder ()
    end
  in
  let stack = Pnode.stack vn.node in
  let inject = napt_injector vn in
  match out.Packet.proto with
  | Packet.Udp u ->
      bind_kind 0 u.Packet.usport (fun () ->
          Ipstack.bind_udp stack ~port:u.Packet.usport inject)
  | Packet.Tcp seg ->
      bind_kind 1 seg.Packet.sport (fun () ->
          Ipstack.bind_tcp stack ~port:seg.Packet.sport inject)
  | Packet.Icmp _ -> ()

and napt_injector vn pkt =
  match Napt.translate_in vn.napt pkt with
  | Some inner ->
      vn.n_napt_in <- vn.n_napt_in + 1;
      if Span.on () then
        Span.instant ~pkt:inner.Packet.id ~orig:inner.Packet.orig
          ~component:(click_comp vn ^ "/napt") Span.Proto_processing;
      route vn inner
  | None -> ()

(* Packets reaching the Click process: outer packets addressed to the
   physical node (tunnels, VPN, NAT returns) vs. inner packets injected
   locally (tap, control plane).  [host] is the machine this particular
   process sits on, captured at wire time rather than read from the vnode:
   after a migration flip the vnode record points at the new machine, but
   packets still in flight to the old one must be recognised as outer
   frames there during the drain. *)
let click_handler t vn ~host (pkt : Packet.t) =
  if not (Addr.equal pkt.Packet.dst (Pnode.addr host)) then route vn pkt
  else
    match pkt.Packet.proto with
    | Packet.Udp { udport; body = Packet.Tunnel inner; _ }
      when udport = t.tunnel_port ->
        (* Decapsulation verifies the inner frame's checksum; frames a
           Corrupting fault damaged in flight die here, at the receiver. *)
        if Packet.intact inner then route vn inner
        else begin
          vn.n_corrupt <- vn.n_corrupt + 1;
          let module Trace = Vini_sim.Trace in
          if Trace.on Trace.Category.Packet_drop then
            Trace.emit ~severity:Trace.Warn
              ~component:(click_comp vn)
              (Trace.Packet_drop
                 { reason = "corrupt"; bytes = Packet.size inner });
          drop_span vn inner ~reason:"corrupt"
        end
    | Packet.Udp { udport; usport; body = Packet.Vpn inner; _ }
      when udport = Wire.openvpn_port ->
        vn.n_vpn_in <- vn.n_vpn_in + 1;
        (* Learn/refresh the client's location for return traffic. *)
        Hashtbl.replace vn.vpn_clients inner.Packet.src
          (pkt.Packet.src, usport);
        route vn inner
    | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ -> napt_injector vn pkt

(* Batched FIB resolution: one burst through [route]'s decision logic,
   with consecutive same-destination packets resolved once.  The memo sits
   in front of the FIB's own flow cache and is guarded by the generation
   counter — a control packet routed mid-batch may update the table, and
   the memo must never outlive the cache line it shadows.  Per-packet
   spans are emitted exactly as [route] emits them, so a batched run's
   flight-recorder stream per packet is the per-packet stream. *)
let route_batch vn b =
  let n = Batch.length b in
  let memo_gen = ref (-1) in
  let memo_dst = ref Addr.any in
  let memo_act = ref None in
  for i = 0 to n - 1 do
    let pkt = Batch.unsafe_get b i in
    if Span.on () then
      Span.instant ~pkt:pkt.Packet.id ~orig:pkt.Packet.orig
        ~component:(click_comp vn ^ "/fib") Span.Proto_processing;
    let dst = pkt.Packet.dst in
    vn.n_fib_memo_lookups <- vn.n_fib_memo_lookups + 1;
    let act =
      if !memo_gen = Fib.generation vn.fib && Addr.equal dst !memo_dst then begin
        vn.n_fib_memo_hits <- vn.n_fib_memo_hits + 1;
        !memo_act
      end
      else begin
        let a = Fib.lookup vn.fib dst in
        memo_dst := dst;
        memo_act := a;
        memo_gen := Fib.generation vn.fib;
        a
      end
    in
    match act with
    | None -> no_route vn pkt
    | Some Deliver -> deliver_local vn pkt
    | Some Direct -> forward vn dst pkt
    | Some (Via nh) -> forward vn nh pkt
  done

(* --- construction ------------------------------------------------------ *)

let build_vnode t ~vid ~pnode ~links_of_vid =
  let engine = t.engine in
  let vtap = tap_addr_of vid in
  let fib = Fib.create () in
       let connected_actions = Hashtbl.create 8 in
       (* The vnode record is read at call time: no FEA activity happens
          before the vnodes array is populated, and routing the change
          through the record lets a migration freeze the FIB while two
          processes forward from it. *)
       let fea (change : Rib.change) =
         let vn = t.vnodes.(vid) in
         if vn.fib_frozen then vn.deferred_fib <- change :: vn.deferred_fib
         else apply_fib_change vn change
       in
       let proc =
         Process.create ~node:pnode ~slice:t.slice
           ~name:(Printf.sprintf "%s/click@%s" t.slice.Vini_phys.Slice.name
                    (Pnode.name pnode))
           ~burst:t.click_burst
           ~handler:(fun _ -> ())
           ()
       in
       let ctrl_inject = Process.open_queue proc () in
       let tap_inject = Process.open_queue proc () in
       let tap_stack =
         (* The injector is read through the vnode record at send time, so
            a migrated vnode's tap feeds the replacement process. *)
         Ipstack.create ~engine ~local_addr:vtap
           ~tx:(fun pkt -> ignore (t.vnodes.(vid).tap_inject pkt))
           ()
       in
       (* Tunnels: one per incident virtual link. *)
       let tunnels =
         List.mapi
           (fun ifindex (nbr, link, link_idx) ->
             let subnet = link_subnet link_idx in
             let a_end = min vid nbr = vid in
             let local_vaddr = Prefix.host subnet (if a_end then 1 else 2) in
             let remote_vaddr = Prefix.host subnet (if a_end then 2 else 1) in
             let to_wire =
               Element.make
                 (Printf.sprintf "totunnel-%d-%d" vid nbr)
                 (fun inner ->
                   (* UDP-tunnel encapsulation: the outer frame inherits
                      the inner packet's provenance.  Source machine and
                      remote endpoint are resolved per packet so tunnels
                      follow migrations of either end. *)
                   let vn = t.vnodes.(vid) in
                   let outer =
                     Packet.udp ~orig:inner.Packet.orig
                       ~src:(Pnode.addr vn.node)
                       ~dst:(Underlay.addr t.underlay t.placement.(nbr))
                       ~sport:t.tunnel_port ~dport:t.tunnel_port
                       (Packet.Tunnel inner)
                   in
                   Pnode.send_as vn.node ~cls:t.slice.Vini_phys.Slice.name
                     outer)
             in
             (* Indirection so a shaper can be spliced in at runtime. *)
             let tail_ref = ref to_wire in
             let tail_entry =
               Element.make
                 (Printf.sprintf "tail-%d-%d" vid nbr)
                 (fun pkt -> Element.push !tail_ref pkt)
             in
             let faulty =
               Faulty.create
                 ~rng:(Vini_std.Rng.split t.rng)
                 ~out:tail_entry
                 (Printf.sprintf "droplink-%d-%d" vid nbr)
             in
             let iface =
               Io.make ~ifindex
                 ~ifname:(Printf.sprintf "eth%d" ifindex)
                 ~local:local_vaddr ~remote:remote_vaddr
                 ~cost:link.Graph.weight
                 ~send:(fun msg ~size ->
                   let inner =
                     Packet.udp ~ttl:2 ~src:local_vaddr ~dst:remote_vaddr
                       ~sport:520 ~dport:520
                       (Packet.Control { size; msg })
                   in
                   (* Routing-protocol emitter: a packet origin. *)
                   if Span.on () then
                     Span.origin ~pkt:inner.Packet.id ~orig:inner.Packet.orig
                       ~bytes:(Packet.size inner)
                       ~component:(Printf.sprintf "routing-%d-%d" vid nbr)
                       ();
                   ignore (t.vnodes.(vid).ctrl_inject inner))
             in
             {
               nbr;
               local_vaddr;
               remote_vaddr;
               faulty;
               to_wire;
               tail = tail_ref;
               vshaper = None;
               iface;
             })
           links_of_vid
       in
  let vrib = Rib.create ~fea () in
  {
    vid;
    vnode_name = Graph.name t.vtopo vid;
    slice_name = t.slice.Vini_phys.Slice.name;
    node = pnode;
    proc;
    ctrl_inject;
    tap_inject;
    tap_stack;
    vtap_addr = vtap;
    fib;
    vrib;
    napt = Napt.create ~public_addr:(Pnode.addr pnode) ();
    tunnels;
    connected_actions;
    vpn_clients = Hashtbl.create 8;
    ingress_pool = None;
    extra_locals = [];
    next_vpn_host = 2;
    egress = false;
    vospf = None;
    vrip = None;
    control_hooks = [];
    bound_napt_ports = Hashtbl.create 8;
    n_forwarded = 0;
    n_delivered = 0;
    n_no_route = 0;
    n_ttl = 0;
    n_napt_out = 0;
    n_napt_in = 0;
    n_vpn_in = 0;
    n_vpn_out = 0;
    n_corrupt = 0;
    n_fib_memo_hits = 0;
    n_fib_memo_lookups = 0;
    fib_frozen = false;
    deferred_fib = [];
  }

(* A crashing click process takes its whole router down: the routing
   instances go silent for good (neighbours detect the death by missed
   hellos) and the FIB — data-plane state — is lost.  Also run when a
   migration abandons a machine. *)
let teardown_router vn =
  (match vn.vospf with Some o -> Ospf.stop o | None -> ());
  (match vn.vrip with Some r -> Rip.stop r | None -> ());
  vn.vospf <- None;
  vn.vrip <- None;
  Fib.clear vn.fib

(* Wire one Click process (the vnode's current one, or a migration's
   pre-clone) to the shared data plane.  The crash hook is identity
   guarded: tearing down the shared router state is only correct while
   this process is still the vnode's current one — an old pre-migration
   process crashing after the flip must not clear the live FIB. *)
let wire_process t vn proc =
  let host = Process.node proc in
  Process.set_handler proc (fun pkt -> click_handler t vn ~host pkt);
  Process.on_crash proc (fun () -> if vn.proc == proc then teardown_router vn)

let create ~underlay ~slice ~vtopo ~embedding ?(routing = default_ospf)
    ?(tunnel_port = 33000)
    ?(tunnel_rcvbuf_bytes = Vini_phys.Calibration.udp_rcvbuf_bytes)
    ?(click_burst = 1) () =
  if click_burst < 1 then
    invalid_arg "Iias.create: click_burst must be positive";
  let n = Graph.node_count vtopo in
  let placement = Array.init n embedding in
  (* Injectivity check: one vnode per pnode per slice (fixed UDP port). *)
  let seen = Hashtbl.create n in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then
        invalid_arg "Iias.create: embedding maps two virtual nodes to one node";
      Hashtbl.replace seen p ())
    placement;
  let engine = Underlay.engine underlay in
  let rng = Vini_std.Rng.split (Engine.rng engine) in
  (* Number links once, for /30 allocation. *)
  let link_index = Hashtbl.create 16 in
  List.iteri
    (fun i (l : Graph.link) ->
      Hashtbl.replace link_index (min l.a l.b, max l.a l.b) i)
    (Graph.links vtopo);
  let t =
    {
      underlay;
      engine;
      slice;
      vtopo;
      routing;
      tunnel_port;
      tunnel_rcvbuf_bytes;
      click_burst;
      placement;
      vnodes = [||];
      rng;
      started = false;
      supervisor = None;
      pending_migs = Hashtbl.create 4;
    }
  in
  t.vnodes <-
    Array.init n (fun vid ->
        let pnode = Underlay.node underlay placement.(vid) in
        let links_of_vid =
          List.map
            (fun (nbr, link) ->
              let idx = Hashtbl.find link_index (min vid nbr, max vid nbr) in
              (nbr, link, idx))
            (Graph.neighbors vtopo vid)
        in
        build_vnode t ~vid ~pnode ~links_of_vid);
  Array.iter (fun vn -> wire_process t vn vn.proc) t.vnodes;
  t

let vnode_count t = Array.length t.vnodes
let vnode t i = t.vnodes.(i)

let assert_not_started t what =
  if t.started then invalid_arg ("Iias: " ^ what ^ " must precede start")

(* ICMP has no port to pre-bind, so returning echo replies reach the
   kernel's ICMP path: try the NAPT table there, keep kernel echo
   behaviour for everything else.  Installed on the current hosting
   machine's stack — re-applied when a migration changes the machine. *)
let install_egress_icmp vn =
  let stack = Pnode.stack vn.node in
  Ipstack.set_icmp_handler stack (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Icmp (Packet.Echo_request e) ->
          Ipstack.send stack
            (Packet.icmp ~orig:pkt.Packet.orig ~src:(Pnode.addr vn.node)
               ~dst:pkt.Packet.src (Packet.Echo_reply e))
      | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ -> napt_injector vn pkt)

let enable_egress t v =
  assert_not_started t "enable_egress";
  let vn = t.vnodes.(v) in
  vn.egress <- true;
  install_egress_icmp vn

let advertise_prefix ?(quiet = false) t v prefix =
  assert_not_started t "advertise_prefix";
  let vn = t.vnodes.(v) in
  vn.extra_locals <- vn.extra_locals @ [ (prefix, not quiet) ]

let enable_ingress t v ~pool =
  assert_not_started t "enable_ingress";
  let vn = t.vnodes.(v) in
  vn.ingress_pool <- Some pool;
  ignore (Process.open_socket vn.proc ~port:Wire.openvpn_port ())

(* Prefixes a virtual node owns and advertises. *)
let local_prefixes vn =
  let advertised =
    List.filter_map (fun (p, adv) -> if adv then Some p else None)
      vn.extra_locals
  in
  let base = Prefix.make vn.vtap_addr 32 :: advertised in
  let base =
    match vn.ingress_pool with Some p -> p :: base | None -> base
  in
  if vn.egress then Prefix.default_route :: base else base

let install_connected t vn =
  ignore t;
  let add p action =
    Hashtbl.replace vn.connected_actions p action;
    Rib.update vn.vrib ~proto:Rib.Connected p
      (Some { Rib.next_hop = Addr.any; metric = 0; proto = Rib.Connected })
  in
  add (Prefix.make vn.vtap_addr 32) Deliver;
  List.iter
    (fun tun ->
      add (Prefix.make tun.local_vaddr 30) Direct;
      (* More specific than the /30: our own end terminates here. *)
      add (Prefix.make tun.local_vaddr 32) Deliver)
    vn.tunnels;
  (match vn.ingress_pool with Some p -> add p Deliver | None -> ());
  List.iter (fun (p, _) -> add p Deliver) vn.extra_locals;
  if vn.egress then add Prefix.default_route Deliver

(* Create and start a fresh routing instance for a vnode.  Used both at
   experiment start and when a supervised restart rebuilds the router. *)
let start_routing t vn =
  let ifaces = List.map (fun tun -> tun.iface) vn.tunnels in
  match t.routing with
  | Static_routes -> ()
  | Ospf_routing { hello; dead; spf_delay } ->
      let config =
        {
          (Ospf.default_config ~router_id:vn.vid
             ~local_prefixes:(local_prefixes vn))
          with
          Ospf.hello_interval = hello;
          dead_interval = dead;
          spf_delay;
        }
      in
      let o =
        Ospf.create ~engine:t.engine ~rng:(Vini_std.Rng.split t.rng)
          ~config ~ifaces ~rib:vn.vrib
      in
      vn.vospf <- Some o;
      Ospf.start o
  | Rip_routing { scale } ->
      let config =
        Rip.scaled_config ~scale ~local_prefixes:(local_prefixes vn)
      in
      let r =
        Rip.create ~engine:t.engine ~rng:(Vini_std.Rng.split t.rng)
          ~config ~ifaces ~rib:vn.vrib
      in
      vn.vrip <- Some r;
      Rip.start r

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter
      (fun vn ->
        ignore
          (Process.open_socket vn.proc ~port:t.tunnel_port
             ~rcvbuf_bytes:t.tunnel_rcvbuf_bytes ());
        install_connected t vn;
        start_routing t vn)
      t.vnodes
  end

(* --- crash recovery ----------------------------------------------------- *)

(* The on-restart hook: the process is back with a fresh, empty data plane.
   Replaying the RIB repopulates the Click FIB immediately — routes survive
   the data-plane restart — and a new routing instance then re-forms
   adjacencies and resyncs the LSDB to correct anything stale. *)
let revive_vnode t vn =
  Rib.reinstall vn.vrib;
  start_routing t vn

let enable_supervision ?policy t =
  match t.supervisor with
  | Some _ -> ()
  | None ->
      let sup =
        Supervisor.create ~engine:t.engine
          ~rng:(lazy (Vini_std.Rng.split t.rng))
          ?policy ()
      in
      t.supervisor <- Some sup;
      Array.iter
        (fun vn ->
          Supervisor.supervise sup ~name:(Process.name vn.proc)
            ~on_restart:(fun () -> revive_vnode t vn)
            vn.proc)
        t.vnodes

let supervisor t = t.supervisor
let kill_vnode t v = Process.crash t.vnodes.(v).proc
let vnode_alive vn = Process.alive vn.proc

(* --- migration ---------------------------------------------------------- *)

let current_pnode t v = t.placement.(v)
let current_embedding t = Array.copy t.placement

(* Rebuild virtual node [v] on physical node [pid]: a fresh Click process
   (the old machine may be a smoking crater), fresh per-host state (NAPT
   public address, port bindings, sockets), same virtual identity (tap
   address, /30 interfaces, RIB).  Tunnels re-aim themselves because every
   encapsulation reads [t.placement] at send time; the supervisor, if any,
   adopts the replacement so crash-recovery budgets carry over. *)
let migrate_vnode t v ~pnode:pid =
  if v < 0 || v >= Array.length t.vnodes then
    invalid_arg "Iias.migrate_vnode: virtual node out of range";
  let pn = Graph.node_count (Underlay.graph t.underlay) in
  if pid < 0 || pid >= pn then
    invalid_arg "Iias.migrate_vnode: physical node out of range";
  Array.iteri
    (fun v' p ->
      if v' <> v && p = pid then
        invalid_arg "Iias.migrate_vnode: target already hosts this slice")
    t.placement;
  if not (Underlay.node_is_up t.underlay pid) then
    invalid_arg "Iias.migrate_vnode: target node is down";
  if Hashtbl.mem t.pending_migs v then
    invalid_arg "Iias.migrate_vnode: live migration in progress";
  let vn = t.vnodes.(v) in
  let old_name = Process.name vn.proc in
  if Process.alive vn.proc then Process.crash vn.proc;
  let target = Underlay.node t.underlay pid in
  t.placement.(v) <- pid;
  vn.node <- target;
  let proc =
    Process.create ~node:target ~slice:t.slice
      ~name:
        (Printf.sprintf "%s/click@%s" t.slice.Vini_phys.Slice.name
           (Pnode.name target))
      ~burst:t.click_burst
      ~handler:(fun _ -> ())
      ()
  in
  vn.proc <- proc;
  wire_process t vn proc;
  vn.ctrl_inject <- Process.open_queue proc ();
  vn.tap_inject <- Process.open_queue proc ();
  vn.napt <- Napt.create ~public_addr:(Pnode.addr target) ();
  Hashtbl.reset vn.bound_napt_ports;
  if vn.ingress_pool <> None then
    ignore (Process.open_socket proc ~port:Wire.openvpn_port ());
  if vn.egress then install_egress_icmp vn;
  if t.started then begin
    ignore
      (Process.open_socket proc ~port:t.tunnel_port
         ~rcvbuf_bytes:t.tunnel_rcvbuf_bytes ());
    revive_vnode t vn
  end;
  match t.supervisor with
  | Some sup -> Supervisor.adopt sup ~name:old_name proc
  | None -> ()

(* --- make-before-break live migration ---------------------------------- *)

let migration_pending t v = Hashtbl.mem t.pending_migs v

let migration_grace t v =
  match Hashtbl.find_opt t.pending_migs v with
  | Some pm -> pm.pm_flipped
  | None -> false

(* Drops attributable to the vnode across a migration window: its own
   data-plane drop counters plus the receive-buffer drops of both the old
   and the replacement process. *)
let drop_census vn pm =
  vn.n_no_route + vn.n_ttl + vn.n_corrupt
  + Process.socket_drops pm.pm_old_proc
  + Process.socket_drops pm.pm_proc

(* Pre-clone virtual node [v]'s process on physical node [pid]: a fresh
   Click process wired to the shared data plane, with tunnel (and VPN)
   sockets open and input queues ready, double-provisioned next to the
   still-serving old process.  No traffic reaches it until the flip
   ({!commit_migration}) re-aims the placement. *)
let begin_migration t v ~pnode:pid =
  if not t.started then invalid_arg "Iias.begin_migration: not started";
  if v < 0 || v >= Array.length t.vnodes then
    invalid_arg "Iias.begin_migration: virtual node out of range";
  let pn = Graph.node_count (Underlay.graph t.underlay) in
  if pid < 0 || pid >= pn then
    invalid_arg "Iias.begin_migration: physical node out of range";
  if t.placement.(v) = pid then
    invalid_arg "Iias.begin_migration: virtual node already hosted there";
  Array.iteri
    (fun v' p ->
      if v' <> v && p = pid then
        invalid_arg "Iias.begin_migration: target already hosts this slice")
    t.placement;
  if not (Underlay.node_is_up t.underlay pid) then
    invalid_arg "Iias.begin_migration: target node is down";
  if Hashtbl.mem t.pending_migs v then
    invalid_arg "Iias.begin_migration: migration already in progress";
  let vn = t.vnodes.(v) in
  if not (Process.alive vn.proc) then
    invalid_arg "Iias.begin_migration: virtual node is down";
  let target = Underlay.node t.underlay pid in
  let proc =
    Process.create ~node:target ~slice:t.slice
      ~name:
        (Printf.sprintf "%s/click@%s" t.slice.Vini_phys.Slice.name
           (Pnode.name target))
      ~burst:t.click_burst
      ~handler:(fun _ -> ())
      ()
  in
  wire_process t vn proc;
  let pm_ctrl = Process.open_queue proc () in
  let pm_tap = Process.open_queue proc () in
  ignore
    (Process.open_socket proc ~port:t.tunnel_port
       ~rcvbuf_bytes:t.tunnel_rcvbuf_bytes ());
  if vn.ingress_pool <> None then
    ignore (Process.open_socket proc ~port:Wire.openvpn_port ());
  Hashtbl.replace t.pending_migs v
    {
      pm_target = pid;
      pm_proc = proc;
      pm_ctrl;
      pm_tap;
      pm_old_proc = vn.proc;
      pm_flipped = false;
      pm_base = 0;
    }

(* The atomic flip, run as one engine event.  Returns [false] — with no side
   effects — if the clone, its machine, or the old process died since
   [begin_migration]; the caller then rolls back with
   {!abort_migration}.  On success: every tunnel encapsulation and tap
   injection switches to the target in one step (they dereference the
   placement and vnode record per packet), the FIB is rebuilt fresh from
   the RIB and frozen for the drain, and the supervisor adopts the
   replacement.  The routing instance is {e not} restarted: its control
   traffic already flows through the vnode record, so the converged
   control plane migrates with its state — a fresh instance's partial
   reconvergence, deferred during the freeze and replayed at the thaw,
   would punch a transient no-route hole at drain-complete.  The old
   process keeps serving already-buffered and in-flight packets from the
   same (frozen) FIB until {!finish_migration}. *)
let commit_migration t v =
  match Hashtbl.find_opt t.pending_migs v with
  | None -> invalid_arg "Iias.commit_migration: no migration in progress"
  | Some pm ->
      if pm.pm_flipped then invalid_arg "Iias.commit_migration: already flipped";
      let vn = t.vnodes.(v) in
      if
        (not (Process.alive pm.pm_proc))
        || (not (Underlay.node_is_up t.underlay pm.pm_target))
        || not (Process.alive vn.proc)
      then false
      else begin
        pm.pm_base <- drop_census vn pm;
        let target = Underlay.node t.underlay pm.pm_target in
        let old_name = Process.name vn.proc in
        (* The routing instance keeps running across the flip — its
           sends dereference the vnode record, so from here on they
           originate from the target.  Migrating the converged control
           plane with its state means the drain defers only genuine
           topology changes, never a restart's reconvergence churn. *)
        t.placement.(v) <- pm.pm_target;
        vn.node <- target;
        vn.proc <- pm.pm_proc;
        vn.ctrl_inject <- pm.pm_ctrl;
        vn.tap_inject <- pm.pm_tap;
        vn.napt <- Napt.create ~public_addr:(Pnode.addr target) ();
        Hashtbl.reset vn.bound_napt_ports;
        if vn.egress then install_egress_icmp vn;
        (* Fresh FIB from the RIB, then freeze it for the drain window:
           both processes forward from this table until the old one is
           retired, so RIB changes are deferred, not applied. *)
        Fib.clear vn.fib;
        Rib.reinstall vn.vrib;
        vn.fib_frozen <- true;
        (match t.supervisor with
        | Some sup -> Supervisor.adopt sup ~name:old_name pm.pm_proc
        | None -> ());
        pm.pm_flipped <- true;
        true
      end

(* Drain complete: retire the old process (planned — no crash hooks, no
   supervisor budget) and thaw the FIB, replaying the deferred routing
   changes.  Returns the migration's cutover loss: drops attributable to
   the vnode across the window plus whatever the retirement found still
   buffered — the honest count a zero-loss invariant must hold at 0. *)
let finish_migration t v =
  match Hashtbl.find_opt t.pending_migs v with
  | None -> invalid_arg "Iias.finish_migration: no migration in progress"
  | Some pm ->
      if not pm.pm_flipped then
        invalid_arg "Iias.finish_migration: not flipped";
      let vn = t.vnodes.(v) in
      let residual = Process.pending_packets pm.pm_old_proc in
      Process.retire pm.pm_old_proc;
      let loss = residual + (drop_census vn pm - pm.pm_base) in
      vn.fib_frozen <- false;
      List.iter (apply_fib_change vn) (List.rev vn.deferred_fib);
      vn.deferred_fib <- [];
      Hashtbl.remove t.pending_migs v;
      loss

(* Roll back a not-yet-flipped migration: retire the clone (idempotent if
   its machine already crashed) and forget it.  The old process never
   stopped serving, so the slice observes nothing.  After the flip a
   migration can only roll forward ({!finish_migration}). *)
let abort_migration t v =
  match Hashtbl.find_opt t.pending_migs v with
  | None -> invalid_arg "Iias.abort_migration: no migration in progress"
  | Some pm ->
      if pm.pm_flipped then
        invalid_arg "Iias.abort_migration: already flipped; roll forward";
      Process.retire pm.pm_proc;
      Hashtbl.remove t.pending_migs v

(* --- accessors and control -------------------------------------------- *)

let vname vn = vn.vnode_name
let tap vn = vn.tap_stack
let tap_addr vn = vn.vtap_addr
let process vn = vn.proc
let rib vn = vn.vrib
let ospf vn = vn.vospf

let fib_entries vn =
  List.map (fun (p, a) -> (p, action_name a)) (Fib.entries vn.fib)

let tunnel_between t a b =
  let vn = t.vnodes.(a) in
  match List.find_opt (fun tun -> tun.nbr = b) vn.tunnels with
  | Some tun -> tun
  | None -> raise Not_found

let set_vlink_state t a b up =
  let mode = if up then Faulty.Pass else Faulty.Fail in
  Faulty.set_mode (tunnel_between t a b).faulty mode;
  Faulty.set_mode (tunnel_between t b a).faulty mode

let vlink_is_up t a b =
  match Faulty.mode (tunnel_between t a b).faulty with
  | Faulty.Pass | Faulty.Corrupting _ -> true
  | Faulty.Fail | Faulty.Lossy _ -> false

let set_vlink_corrupt t a b prob =
  if prob < 0.0 || prob > 1.0 then
    invalid_arg "Iias.set_vlink_corrupt: probability outside [0,1]";
  let mode = if prob = 0.0 then Faulty.Pass else Faulty.Corrupting prob in
  Faulty.set_mode (tunnel_between t a b).faulty mode;
  Faulty.set_mode (tunnel_between t b a).faulty mode

let set_vlink_loss t a b loss =
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Iias.set_vlink_loss: loss outside [0,1]";
  let mode = if loss = 0.0 then Faulty.Pass else Faulty.Lossy loss in
  Faulty.set_mode (tunnel_between t a b).faulty mode;
  Faulty.set_mode (tunnel_between t b a).faulty mode

let set_direction_bandwidth t tun rate =
  match (rate, tun.vshaper) with
  | None, None -> ()
  | None, Some _ ->
      tun.vshaper <- None;
      tun.tail := tun.to_wire
  | Some bps, Some sh -> Shaper.set_rate sh bps
  | Some bps, None ->
      let sh =
        Shaper.create ~engine:t.engine ~rate_bps:bps ~out:tun.to_wire
          (Printf.sprintf "shaper-%d" tun.nbr)
      in
      tun.vshaper <- Some sh;
      tun.tail := Shaper.element sh

let set_vlink_bandwidth t a b rate =
  (match rate with
  | Some bps when bps <= 0.0 ->
      invalid_arg "Iias.set_vlink_bandwidth: rate must be positive"
  | Some _ | None -> ());
  set_direction_bandwidth t (tunnel_between t a b) rate;
  set_direction_bandwidth t (tunnel_between t b a) rate

let set_vlink_cost t a b cost =
  if cost <= 0 then invalid_arg "Iias.set_vlink_cost: cost must be positive";
  let apply v nbr =
    let tun = tunnel_between t v nbr in
    tun.iface.Io.cost <- cost;
    let vn = t.vnodes.(v) in
    (match vn.vospf with Some o -> Ospf.reoriginate o | None -> ())
  in
  apply a b;
  apply b a

let vlink_cost t a b = (tunnel_between t a b).iface.Io.cost

let add_static t v prefix ~via =
  let vn = t.vnodes.(v) in
  let tun = tunnel_between t v via in
  Rib.update vn.vrib ~proto:Rib.Static prefix
    (Some { Rib.next_hop = tun.remote_vaddr; metric = 1; proto = Rib.Static })

let on_control vn f = vn.control_hooks <- vn.control_hooks @ [ f ]

let alloc_vpn_addr t v =
  let vn = t.vnodes.(v) in
  match vn.ingress_pool with
  | None -> invalid_arg "Iias.alloc_vpn_addr: node is not an ingress"
  | Some pool ->
      let a = Prefix.host pool vn.next_vpn_host in
      vn.next_vpn_host <- vn.next_vpn_host + 1;
      a

let stats vn =
  {
    forwarded = vn.n_forwarded;
    delivered = vn.n_delivered;
    no_route = vn.n_no_route;
    ttl_drops = vn.n_ttl;
    napt_out = vn.n_napt_out;
    napt_in = vn.n_napt_in;
    vpn_in = vn.n_vpn_in;
    vpn_out = vn.n_vpn_out;
    tunnel_drops =
      List.fold_left (fun acc tun -> acc + Faulty.dropped tun.faulty) 0
        vn.tunnels;
    corrupt_drops = vn.n_corrupt;
  }

(* One data-plane forwarding decision, as the watchdog's TTL-probe sees it:
   where does [v]'s FIB send a packet for [dst]?  Next hops are resolved
   recursively onto a tunnel, exactly like {!emit}. *)
let fib_next t v dst =
  let vn = t.vnodes.(v) in
  let rec resolve nh depth =
    match tunnel_towards vn nh with
    | Some tun -> Some tun.nbr
    | None ->
        if depth = 0 then None
        else (
          match Fib.lookup vn.fib nh with
          | Some (Via nh2) when not (Addr.equal nh2 nh) ->
              resolve nh2 (depth - 1)
          | Some _ | None -> None)
  in
  match Fib.lookup vn.fib dst with
  | None -> `No_route
  | Some Deliver -> `Local
  | Some Direct -> (
      match resolve dst 0 with Some n -> `Hop n | None -> `No_route)
  | Some (Via nh) -> (
      match resolve nh 4 with Some n -> `Hop n | None -> `No_route)

let cpu_time vn = Process.cpu_time vn.proc
let socket_drops vn = Process.socket_drops vn.proc
let fib_cache_stats vn = (Fib.cache_hits vn.fib, Fib.cache_misses vn.fib)
let fib_memo_stats vn = (vn.n_fib_memo_hits, vn.n_fib_memo_lookups)
