(* Integration tests: the IIAS overlay end to end. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Datasets = Vini_topo.Datasets
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Ipstack = Vini_phys.Ipstack
module Ping = Vini_measure.Ping

let check = Alcotest.check

(* A 3-node dedicated-hardware chain with IIAS mirrored onto it. *)
let make_chain ?(routing = Iias.default_ospf) () =
  let engine = Engine.create ~seed:7 () in
  let graph = Datasets.Deter.topology () in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let slice = Slice.pl_vini "test" in
  let iias =
    Iias.create ~underlay ~slice ~vtopo:graph ~embedding:Fun.id ~routing ()
  in
  Iias.start iias;
  (engine, iias)

let converge engine = Engine.run ~until:(Time.sec 20) engine

let test_ospf_converges () =
  let engine, iias = make_chain () in
  converge engine;
  let v0 = Iias.vnode iias 0 in
  let v2 = Iias.vnode iias 2 in
  (* Node 0 must know node 2's tap address via OSPF. *)
  let entries = Iias.fib_entries v0 in
  let tap2 = Iias.tap_addr v2 in
  let found =
    List.exists
      (fun (p, _) -> Vini_net.Prefix.contains p tap2)
      entries
  in
  check Alcotest.bool "route to remote tap present" true found;
  match Iias.ospf v0 with
  | None -> Alcotest.fail "no ospf instance"
  | Some o ->
      check Alcotest.bool "spf ran" true (Vini_routing.Ospf.spf_runs o > 0);
      check Alcotest.int "one full adjacency on end node" 1
        (List.length (Vini_routing.Ospf.full_neighbors o))

let test_ping_across_overlay () =
  let engine, iias = make_chain () in
  converge engine;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  let ping =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:200 ()
  in
  Engine.run ~until:(Time.sec 40) engine;
  check Alcotest.int "all pings answered" 200 (Ping.received ping);
  let rtts = Ping.rtt_ms ping in
  let avg = Vini_std.Stats.mean rtts in
  check Alcotest.bool
    (Printf.sprintf "rtt sane (%.3f ms)" avg)
    true
    (avg > 0.1 && avg < 5.0)

let test_flight_recorder_across_overlay () =
  (* End to end: record a ping crossing the full overlay and check the
     causal tree has every attribution category, inherited provenance
     across UDP-tunnel encapsulation, and a forensic path for a
     TTL-doomed packet. *)
  let module Sspan = Vini_sim.Span in
  let module Mspan = Vini_measure.Span in
  let module Packet = Vini_net.Packet in
  let engine, iias = make_chain () in
  converge engine;
  let r = Sspan.create ~capacity:65_536 () in
  Sspan.install r;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  let ping =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:20 ()
  in
  ignore
    (Engine.at engine (Time.sec 21) (fun () ->
         Ipstack.send (Iias.tap v0)
           (Packet.udp ~ttl:1 ~src:(Iias.tap_addr v0) ~dst:(Iias.tap_addr v2)
              ~sport:40000 ~dport:40001
              (Packet.Probe { Packet.flow = 1; seq = 0; sent_ns = 0; pad = 8 }))));
  Engine.run ~until:(Time.sec 30) engine;
  Sspan.uninstall ();
  check Alcotest.int "pings still delivered while recording" 20
    (Ping.received ping);
  let trees = Mspan.trees r in
  check Alcotest.bool "trees recorded" true (trees <> []);
  (* Every attribution category shows up somewhere on a loaded overlay. *)
  let rows = Mspan.breakdown trees in
  List.iter
    (fun row ->
      check Alcotest.bool
        (Sspan.attribution_name row.Mspan.attribution ^ " hops present")
        true (row.Mspan.hop_count > 0))
    rows;
  (* Encapsulation inherits provenance: some tree carries a hop or origin
     whose packet id differs from the tree's root id (the outer tunnel
     frame continuing the inner packet's tree). *)
  check Alcotest.bool "encap continues the inner packet's tree" true
    (List.exists
       (fun t ->
         List.exists (fun (h : Mspan.hop) -> h.Mspan.h_pkt <> t.Mspan.tree_orig) t.Mspan.hops
         || List.exists
              (fun (o : Mspan.origin) -> o.Mspan.o_pkt <> t.Mspan.tree_orig)
              t.Mspan.origins)
       trees);
  (* The TTL-doomed probe died with a non-empty path-so-far. *)
  let forensics = Mspan.forensics trees in
  let ttl =
    List.filter (fun f -> f.Mspan.f_reason = "ttl-expired") forensics
  in
  check Alcotest.bool "ttl probe produced a forensic record" true (ttl <> []);
  List.iter
    (fun f ->
      check Alcotest.bool "forensic path non-empty" true (f.Mspan.f_path <> []))
    forensics

let test_vlink_failure_and_reconvergence () =
  (* Square topology: 0-1-2 and 0-3-2 as alternate path. *)
  let engine = Engine.create ~seed:11 () in
  let mk a b w =
    {
      Graph.a;
      b;
      bandwidth_bps = 1e9;
      delay = Time.ms 1;
      loss = 0.0;
      weight = w;
    }
  in
  let graph =
    Graph.create
      ~names:[| "n0"; "n1"; "n2"; "n3" |]
      ~links:[ mk 0 1 10; mk 1 2 10; mk 0 3 100; mk 2 3 100 ]
  in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let slice = Slice.pl_vini "sq" in
  let iias =
    Iias.create ~underlay ~slice ~vtopo:graph ~embedding:Fun.id ()
  in
  Iias.start iias;
  Engine.run ~until:(Time.sec 20) engine;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  (* Steady state: pinging works over the cheap path. *)
  let p1 =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:20 ()
  in
  Engine.run ~until:(Time.sec 25) engine;
  check Alcotest.int "pre-failure pings" 20 (Ping.received p1);
  (* Fail the virtual link 0-1 inside Click; OSPF must re-route via 3. *)
  Iias.set_vlink_state iias 0 1 false;
  Engine.run ~until:(Time.sec 45) engine;
  let p2 =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:20 ()
  in
  Engine.run ~until:(Time.sec 55) engine;
  check Alcotest.int "post-failure pings via alternate path" 20
    (Ping.received p2);
  (* The alternate path is two 100-weight links: metric 200 at node 0. *)
  let rib = Iias.rib v0 in
  let tap2_prefix = Vini_net.Prefix.make (Iias.tap_addr v2) 32 in
  (match Vini_routing.Rib.best rib tap2_prefix with
  | Some r -> check Alcotest.int "rerouted metric" 200 r.Vini_routing.Rib.metric
  | None -> Alcotest.fail "no route after reconvergence");
  (* Restore: back to metric 20. *)
  Iias.set_vlink_state iias 0 1 true;
  Engine.run ~until:(Time.sec 80) engine;
  match Vini_routing.Rib.best rib tap2_prefix with
  | Some r -> check Alcotest.int "restored metric" 20 r.Vini_routing.Rib.metric
  | None -> Alcotest.fail "no route after restore"

let test_tcp_over_overlay () =
  let engine, iias = make_chain () in
  converge engine;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  let server = Iias.tap v2 and client = Iias.tap v0 in
  let delivered = ref 0 in
  Vini_transport.Tcp.listen ~stack:server ~port:5001
    ~on_accept:(fun conn ->
      Vini_transport.Tcp.on_deliver conn (fun n -> delivered := !delivered + n))
    ();
  let conn =
    Vini_transport.Tcp.connect ~stack:client ~dst:(Iias.tap_addr v2)
      ~dst_port:5001 ()
  in
  Vini_transport.Tcp.send conn 300_000;
  Vini_transport.Tcp.close conn;
  Engine.run ~until:(Time.sec 60) engine;
  check Alcotest.int "all bytes delivered in order" 300_000 !delivered

let test_opt_in_and_nat_egress () =
  (* Chain of 3 IIAS nodes; an external client opts in via OpenVPN at node
     0; an external web server hangs off node 2's site.  Node 2 is the
     egress.  The client's pings to the web server must flow through the
     overlay, NAT out at node 2, and return. *)
  let engine = Engine.create ~seed:21 () in
  let mk a b =
    {
      Graph.a;
      b;
      bandwidth_bps = 1e9;
      delay = Time.ms 2;
      loss = 0.0;
      weight = 1;
    }
  in
  (* Physical: 0,1,2 backbone; 3 = client host near 0; 4 = web server near 2. *)
  let graph =
    Graph.create
      ~names:[| "p0"; "p1"; "p2"; "client"; "webserver" |]
      ~links:[ mk 0 1; mk 1 2; mk 0 3; mk 2 4 ]
  in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let slice = Slice.pl_vini "optin" in
  let vtopo =
    Graph.create ~names:[| "v0"; "v1"; "v2" |] ~links:[ mk 0 1; mk 1 2 ]
  in
  let iias = Iias.create ~underlay ~slice ~vtopo ~embedding:Fun.id () in
  let pool = Vini_net.Prefix.of_string "10.8.0.0/24" in
  Iias.enable_ingress iias 0 ~pool;
  Iias.enable_egress iias 2;
  Iias.start iias;
  Engine.run ~until:(Time.sec 20) engine;
  (* Client opts in. *)
  let client_host = Underlay.node underlay 3 in
  let vaddr = Iias.alloc_vpn_addr iias 0 in
  let vpn =
    Vini_overlay.Openvpn.connect ~host:client_host
      ~server:(Underlay.addr underlay 0) ~vaddr ()
  in
  Engine.run ~until:(Time.sec 21) engine;
  (* Ping the external web server through the overlay. *)
  let web_addr = Underlay.addr underlay 4 in
  let ping =
    Ping.start ~stack:(Vini_overlay.Openvpn.stack vpn) ~dst:web_addr ~count:50
      ()
  in
  Engine.run ~until:(Time.sec 30) engine;
  check Alcotest.int "pings through vpn+overlay+nat" 50 (Ping.received ping);
  let s2 = Iias.stats (Iias.vnode iias 2) in
  check Alcotest.bool "egress translated outbound" true (s2.Iias.napt_out >= 50);
  check Alcotest.bool "egress translated inbound" true (s2.Iias.napt_in >= 50);
  let s0 = Iias.stats (Iias.vnode iias 0) in
  check Alcotest.bool "ingress decapsulated" true (s0.Iias.vpn_in >= 50);
  check Alcotest.bool "ingress encapsulated returns" true (s0.Iias.vpn_out >= 50)

let square_iias ?(seed = 11) () =
  let engine = Engine.create ~seed () in
  let mk a b w =
    {
      Graph.a;
      b;
      bandwidth_bps = 1e9;
      delay = Time.ms 1;
      loss = 0.0;
      weight = w;
    }
  in
  let graph =
    Graph.create
      ~names:[| "n0"; "n1"; "n2"; "n3" |]
      ~links:[ mk 0 1 10; mk 1 2 10; mk 0 3 100; mk 2 3 100 ]
  in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let iias =
    Iias.create ~underlay ~slice:(Slice.pl_vini "sq") ~vtopo:graph
      ~embedding:Fun.id ()
  in
  Iias.start iias;
  Engine.run ~until:(Time.sec 20) engine;
  (engine, iias)

let test_traceroute_shows_path () =
  let engine, iias = square_iias () in
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  let tr =
    Vini_measure.Traceroute.start ~stack:(Iias.tap v0)
      ~dst:(Iias.tap_addr v2) ()
  in
  Engine.run ~until:(Time.sec 25) engine;
  check Alcotest.bool "destination reached" true
    (Vini_measure.Traceroute.reached tr);
  let hops = Vini_measure.Traceroute.hops tr in
  (* Cheap path 0-1-2: hop 1 = local Click (v0), hop 2 = v1, hop 3 = v2. *)
  let responders =
    List.map
      (fun (h : Vini_measure.Traceroute.hop) ->
        Option.map Vini_net.Addr.to_string h.Vini_measure.Traceroute.responder)
      hops
  in
  check
    Alcotest.(list (option string))
    "hop-by-hop path"
    [ Some "10.0.0.1"; Some "10.0.0.2"; Some "10.0.0.3" ]
    responders

let test_traceroute_follows_reroute () =
  let engine, iias = square_iias () in
  Iias.set_vlink_state iias 0 1 false;
  Engine.run ~until:(Time.sec 45) engine;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  let tr =
    Vini_measure.Traceroute.start ~stack:(Iias.tap v0)
      ~dst:(Iias.tap_addr v2) ()
  in
  Engine.run ~until:(Time.sec 55) engine;
  let responders =
    List.filter_map
      (fun (h : Vini_measure.Traceroute.hop) -> h.Vini_measure.Traceroute.responder)
      (Vini_measure.Traceroute.hops tr)
  in
  (* Now via n3: v0, v3, v2. *)
  check
    Alcotest.(list string)
    "rerouted path"
    [ "10.0.0.1"; "10.0.0.4"; "10.0.0.3" ]
    (List.map Vini_net.Addr.to_string responders)

let test_vlink_loss_injection () =
  (* A chain (no alternate path), so routing cannot dodge the lossy link
     — on the square it would, which is itself correct behaviour. *)
  let engine, iias = make_chain () in
  converge engine;
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  Iias.set_vlink_loss iias 0 1 0.3;
  let p =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:150 ()
  in
  Engine.run ~until:(Time.sec 200) engine;
  (* Each echo crosses the lossy link twice: ~51% loss, more when hello
     loss flaps the adjacency. *)
  let pct = Ping.loss_pct p in
  check Alcotest.bool (Printf.sprintf "heavy loss (%.0f%%)" pct) true
    (pct > 30.0 && pct < 98.0);
  Iias.set_vlink_loss iias 0 1 0.0;
  Engine.run ~until:(Time.sec 230) engine;
  (* Clean again once the adjacency has had time to stabilise. *)
  let p2 =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:50 ()
  in
  Engine.run ~until:(Time.sec 260) engine;
  check Alcotest.int "clean after reset" 50 (Ping.received p2)

let test_vlink_bandwidth_cap () =
  let engine, iias = square_iias () in
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  (* Cap the 0-1 link at 2 Mb/s and push 10 Mb/s of UDP through it. *)
  Iias.set_vlink_bandwidth iias 0 1 (Some 2e6);
  let recv =
    Vini_transport.Udp_flow.receiver ~stack:(Iias.tap v2) ~port:7100 ()
  in
  ignore
    (Vini_transport.Udp_flow.sender ~stack:(Iias.tap v0)
       ~dst:(Iias.tap_addr v2) ~dst_port:7100 ~rate_bps:10e6
       ~duration:(Time.sec 5) ());
  Engine.run ~until:(Time.sec 40) engine;
  let st = Vini_transport.Udp_flow.receiver_stats recv in
  let mbps = float_of_int (st.Vini_transport.Udp_flow.bytes * 8) /. 5.0 /. 1e6 in
  check Alcotest.bool (Printf.sprintf "shaped to ~2 Mb/s (%.2f)" mbps) true
    (mbps > 1.2 && mbps < 2.6);
  (* Remove the cap: full rate flows again. *)
  Iias.set_vlink_bandwidth iias 0 1 None;
  let recv2 =
    Vini_transport.Udp_flow.receiver ~stack:(Iias.tap v2) ~port:7101 ()
  in
  ignore
    (Vini_transport.Udp_flow.sender ~stack:(Iias.tap v0)
       ~dst:(Iias.tap_addr v2) ~dst_port:7101 ~rate_bps:10e6
       ~duration:(Time.sec 5) ());
  Engine.run ~until:(Time.sec 60) engine;
  let st2 = Vini_transport.Udp_flow.receiver_stats recv2 in
  check Alcotest.int "no loss uncapped" 0 st2.Vini_transport.Udp_flow.lost

let test_vlink_cost_maintenance () =
  (* Raise the cheap path's cost (planned maintenance): traffic drains to
     the alternate path with no loss at all. *)
  let engine, iias = square_iias () in
  let v0 = Iias.vnode iias 0 and v2 = Iias.vnode iias 2 in
  check Alcotest.int "initial cost" 10 (Iias.vlink_cost iias 0 1);
  (* Continuous ping through the reconfiguration. *)
  let p =
    Ping.start ~stack:(Iias.tap v0) ~dst:(Iias.tap_addr v2) ~count:100
      ~mode:(Ping.Interval (Time.ms 200)) ()
  in
  ignore
    (Engine.at engine (Time.sec 25) (fun () ->
         Iias.set_vlink_cost iias 0 1 5000));
  Engine.run ~until:(Time.sec 60) engine;
  check Alcotest.int "no loss during maintenance" 100 (Ping.received p);
  check Alcotest.int "cost updated" 5000 (Iias.vlink_cost iias 0 1);
  (* Traffic now takes the 0-3-2 path: metric 200 at v0. *)
  let rib = Iias.rib v0 in
  match
    Vini_routing.Rib.best rib (Vini_net.Prefix.make (Iias.tap_addr v2) 32)
  with
  | Some r -> check Alcotest.int "drained to alternate" 200 r.Vini_routing.Rib.metric
  | None -> Alcotest.fail "route lost during maintenance"

let test_vpn_client_to_client () =
  (* Two end hosts opt in at the same ingress; their overlay addresses can
     talk to each other — the ingress hairpins traffic between clients. *)
  let engine = Engine.create ~seed:23 () in
  let mk a b =
    { Graph.a; b; bandwidth_bps = 1e9; delay = Time.ms 2; loss = 0.0; weight = 1 }
  in
  let graph =
    Graph.create
      ~names:[| "p0"; "p1"; "homeA"; "homeB" |]
      ~links:[ mk 0 1; mk 0 2; mk 0 3 ]
  in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let vtopo = Graph.create ~names:[| "v0"; "v1" |] ~links:[ mk 0 1 ] in
  let iias =
    Iias.create ~underlay ~slice:(Slice.pl_vini "c2c") ~vtopo ~embedding:Fun.id ()
  in
  Iias.enable_ingress iias 0 ~pool:(Vini_net.Prefix.of_string "10.8.0.0/24");
  Iias.start iias;
  Engine.run ~until:(Time.sec 15) engine;
  let connect host =
    let vaddr = Iias.alloc_vpn_addr iias 0 in
    Vini_overlay.Openvpn.connect ~host:(Underlay.node underlay host)
      ~server:(Underlay.addr underlay 0) ~vaddr ()
  in
  let va = connect 2 and vb = connect 3 in
  Engine.run ~until:(Time.sec 16) engine;
  let ping =
    Ping.start
      ~stack:(Vini_overlay.Openvpn.stack va)
      ~dst:(Vini_overlay.Openvpn.vaddr vb)
      ~count:30 ()
  in
  Engine.run ~until:(Time.sec 25) engine;
  check Alcotest.int "client-to-client pings" 30 (Ping.received ping);
  check Alcotest.bool "distinct overlay addresses" true
    (not
       (Vini_net.Addr.equal
          (Vini_overlay.Openvpn.vaddr va)
          (Vini_overlay.Openvpn.vaddr vb)))

(* The client sends to the port the ingress listens on: every datagram
   through the tun reaches the ingress's VPN socket and is decapsulated
   there.  Fails if the two ends stop sharing [Wire.openvpn_port]. *)
let test_vpn_datagrams_reach_ingress () =
  let engine = Engine.create ~seed:29 () in
  let mk a b =
    { Graph.a; b; bandwidth_bps = 1e9; delay = Time.ms 2; loss = 0.0; weight = 1 }
  in
  let graph =
    Graph.create ~names:[| "p0"; "p1"; "home" |] ~links:[ mk 0 1; mk 0 2 ]
  in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let vtopo = Graph.create ~names:[| "v0"; "v1" |] ~links:[ mk 0 1 ] in
  let iias =
    Iias.create ~underlay ~slice:(Slice.pl_vini "port") ~vtopo ~embedding:Fun.id ()
  in
  Iias.enable_ingress iias 0 ~pool:(Vini_net.Prefix.of_string "10.8.0.0/24");
  Iias.start iias;
  Engine.run ~until:(Time.sec 15) engine;
  let vaddr = Iias.alloc_vpn_addr iias 0 in
  let vpn =
    Vini_overlay.Openvpn.connect ~host:(Underlay.node underlay 2)
      ~server:(Underlay.addr underlay 0) ~vaddr ()
  in
  Engine.run ~until:(Time.sec 16) engine;
  let vpn_in () = (Iias.stats (Iias.vnode iias 0)).Iias.vpn_in in
  let greeted = vpn_in () in
  check Alcotest.int "the greeting reached the ingress" 1 greeted;
  let sent = 20 in
  for i = 1 to sent do
    Ipstack.send (Vini_overlay.Openvpn.stack vpn)
      (Vini_net.Packet.udp ~src:vaddr ~dst:(Iias.tap_addr (Iias.vnode iias 1))
         ~sport:4000 ~dport:4000
         (Vini_net.Packet.Probe
            { Vini_net.Packet.flow = 1; seq = i; sent_ns = 0; pad = 64 }))
  done;
  Engine.run ~until:(Time.sec 17) engine;
  check Alcotest.int "every datagram decapsulated at the ingress" sent
    (vpn_in () - greeted)

let test_bgp_rides_the_overlay () =
  (* Two protocols in one virtual network (the §7 usage): OSPF computes
     intra-overlay routes; an iBGP full mesh rides the same tunnels to
     distribute an "external" prefix that OSPF never hears about, and the
     data plane resolves the BGP next hop recursively through the IGP. *)
  let module Bgp = Vini_routing.Bgp in
  let module Rib = Vini_routing.Rib in
  let engine = Engine.create ~seed:7 () in
  let graph = Datasets.Deter.topology () in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph ()
  in
  let iias =
    Iias.create ~underlay ~slice:(Slice.pl_vini "bgp") ~vtopo:graph
      ~embedding:Fun.id ()
  in
  let external_block = Vini_net.Prefix.of_string "172.16.0.0/16" in
  (* v0 owns the block but keeps the IGP out of it. *)
  Iias.advertise_prefix ~quiet:true iias 0 external_block;
  Iias.start iias;
  let vnode = Iias.vnode iias in
  (* iBGP full mesh over tap addresses. *)
  let speaker v originate =
    let vn = vnode v in
    let cfg =
      {
        (Bgp.default_config ~asn:65000 ~rid:(v + 1)
           ~next_hop_self:(Iias.tap_addr vn) ~originate)
        with
        Bgp.hold_time = Time.sec 12;
        mrai = Time.ms 100;
        reconnect = Time.sec 3;
      }
    in
    Bgp.create ~engine ~config:cfg ~rib:(Iias.rib vn) ()
  in
  let s0 = speaker 0 [ external_block ] in
  let s1 = speaker 1 [] in
  let s2 = speaker 2 [] in
  let speakers = [| s0; s1; s2 |] in
  (* Wire each ordered pair: messages are Control packets tap-to-tap. *)
  let peer_of = Hashtbl.create 8 in
  let pairs = [ (0, 1); (0, 2); (1, 2) ] in
  List.iter
    (fun (a, b) ->
      let mk_send src dst msg ~size =
        Ipstack.send
          (Iias.tap (vnode src))
          (Vini_net.Packet.udp
             ~src:(Iias.tap_addr (vnode src))
             ~dst:(Iias.tap_addr (vnode dst))
             ~sport:179 ~dport:179
             (Vini_net.Packet.Control { size; msg }))
      in
      let pa =
        Bgp.add_peer speakers.(a)
          ~name:(Printf.sprintf "v%d" b)
          ~kind:`Ibgp ~send:(mk_send a b) ()
      in
      let pb =
        Bgp.add_peer speakers.(b)
          ~name:(Printf.sprintf "v%d" a)
          ~kind:`Ibgp ~send:(mk_send b a) ()
      in
      Hashtbl.replace peer_of (a, b) pa;
      Hashtbl.replace peer_of (b, a) pb)
    pairs;
  (* Dispatch incoming control traffic to the right session by the
     sender's tap address. *)
  for v = 0 to 2 do
    Iias.on_control (vnode v) (fun ~src ~ifindex:_ msg ->
        for other = 0 to 2 do
          if other <> v && Vini_net.Addr.equal src (Iias.tap_addr (vnode other))
          then
            match Hashtbl.find_opt peer_of (v, other) with
            | Some peer -> Bgp.receive speakers.(v) ~peer msg
            | None -> ()
        done)
  done;
  (* Give OSPF time first, then the mesh (BGP needs the IGP paths). *)
  Engine.run ~until:(Time.sec 15) engine;
  Array.iter Bgp.start speakers;
  Engine.run ~until:(Time.sec 40) engine;
  List.iter
    (fun (a, b) ->
      check Alcotest.bool
        (Printf.sprintf "session %d-%d up" a b)
        true
        (Bgp.established speakers.(a) (Hashtbl.find peer_of (a, b))))
    pairs;
  (* v2 learned the block via iBGP, not OSPF. *)
  (match Rib.best (Iias.rib (vnode 2)) external_block with
  | Some r ->
      check Alcotest.bool "learned via ibgp" true (r.Rib.proto = Rib.Ibgp);
      check Alcotest.bool "next hop is v0's tap" true
        (Vini_net.Addr.equal r.Rib.next_hop (Iias.tap_addr (vnode 0)))
  | None -> Alcotest.fail "v2 must learn the external block");
  (* Data follows: ping an address inside the block from v2; the reply
     comes from v0's host stack.  Requires recursive next-hop resolution
     at v2 AND at the transit node v1. *)
  let target = Vini_net.Prefix.host external_block 99 in
  let ping =
    Ping.start ~stack:(Iias.tap (vnode 2)) ~dst:target ~count:20 ()
  in
  Engine.run ~until:(Time.sec 60) engine;
  check Alcotest.int "data to the bgp-learned prefix flows" 20
    (Ping.received ping)

let test_overlay_at_scale () =
  (* A 16-node random overlay: OSPF must converge and a sample of node
     pairs must be mutually reachable. *)
  let engine = Engine.create ~seed:1616 () in
  let g = Datasets.waxman ~rng:(Vini_std.Rng.create 1616) ~n:16 () in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph:g ()
  in
  let iias =
    Iias.create ~underlay ~slice:(Slice.pl_vini "scale") ~vtopo:g
      ~embedding:Fun.id ()
  in
  Iias.start iias;
  Engine.run ~until:(Time.sec 30) engine;
  let pings =
    List.map
      (fun (a, b) ->
        Ping.start
          ~stack:(Iias.tap (Iias.vnode iias a))
          ~dst:(Iias.tap_addr (Iias.vnode iias b))
          ~count:10 ())
      [ (0, 15); (3, 12); (7, 1); (14, 2); (5, 9); (11, 6) ]
  in
  Engine.run ~until:(Time.sec 60) engine;
  List.iteri
    (fun i p ->
      check Alcotest.int (Printf.sprintf "pair %d reachable" i) 10
        (Ping.received p))
    pings

let suite =
  [
    Alcotest.test_case "ospf converges over tunnels" `Quick test_ospf_converges;
    Alcotest.test_case "ping across overlay" `Quick test_ping_across_overlay;
    Alcotest.test_case "flight recorder across overlay" `Quick
      test_flight_recorder_across_overlay;
    Alcotest.test_case "virtual link failure reroutes" `Quick
      test_vlink_failure_and_reconvergence;
    Alcotest.test_case "tcp transfer over overlay" `Quick test_tcp_over_overlay;
    Alcotest.test_case "opt-in client through NAT egress" `Quick
      test_opt_in_and_nat_egress;
    Alcotest.test_case "traceroute shows path" `Quick test_traceroute_shows_path;
    Alcotest.test_case "traceroute follows reroute" `Quick
      test_traceroute_follows_reroute;
    Alcotest.test_case "vlink loss injection" `Quick test_vlink_loss_injection;
    Alcotest.test_case "vlink bandwidth cap" `Quick test_vlink_bandwidth_cap;
    Alcotest.test_case "vlink cost maintenance" `Quick test_vlink_cost_maintenance;
    Alcotest.test_case "vpn client-to-client" `Quick test_vpn_client_to_client;
    Alcotest.test_case "vpn datagrams reach the ingress socket" `Quick
      test_vpn_datagrams_reach_ingress;
    Alcotest.test_case "bgp rides the overlay" `Quick test_bgp_rides_the_overlay;
    Alcotest.test_case "overlay at scale (16 nodes)" `Quick test_overlay_at_scale;
  ]
