(* Tests for the physical substrate: links, CPU scheduler, host stacks,
   processes, and the underlay internet. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Addr = Vini_net.Addr
module Graph = Vini_topo.Graph
module Plink = Vini_phys.Plink
module Cpu = Vini_phys.Cpu
module Slice = Vini_phys.Slice
module Ipstack = Vini_phys.Ipstack
module Pnode = Vini_phys.Pnode
module Process = Vini_phys.Process
module Underlay = Vini_phys.Underlay

let check = Alcotest.check
let rng seed = Vini_std.Rng.create seed
let a1 = Addr.of_string "10.0.0.1"
let a2 = Addr.of_string "10.0.0.2"

let udp ?(size = 1000) () =
  Packet.udp ~src:a1 ~dst:a2 ~sport:1 ~dport:2 (Packet.Bytes_ size)

(* --- plink --------------------------------------------------------------- *)

let test_plink_serialization_and_delay () =
  let engine = Engine.create () in
  (* 1 Mb/s, 10 ms propagation: a 1028-byte IP packet serialises in
     8.224 ms, so arrival at ~18.2 ms. *)
  let l =
    Plink.create ~engine ~rng:(rng 1) ~bandwidth_bps:1e6 ~delay:(Time.ms 10) ()
  in
  let arrival = ref Time.zero in
  Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ -> arrival := Engine.now engine);
  Engine.run engine;
  let ms = Time.to_ms_f !arrival in
  check Alcotest.bool (Printf.sprintf "arrival %.3f ms" ms) true
    (ms > 18.0 && ms < 18.5)

let test_plink_fifo_backlog () =
  let engine = Engine.create () in
  let l =
    Plink.create ~engine ~rng:(rng 2) ~bandwidth_bps:1e6 ~delay:Time.zero ()
  in
  let arrivals = ref [] in
  for _ = 1 to 3 do
    Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ ->
        arrivals := Time.to_ms_f (Engine.now engine) :: !arrivals)
  done;
  Engine.run engine;
  match List.rev !arrivals with
  | [ t1; t2; t3 ] ->
      check Alcotest.bool "spaced by serialisation" true
        (t2 -. t1 > 8.0 && t2 -. t1 < 8.5 && t3 -. t2 > 8.0 && t3 -. t2 < 8.5)
  | _ -> Alcotest.fail "expected 3 arrivals"

let test_plink_queue_drop () =
  let engine = Engine.create () in
  let l =
    Plink.create ~engine ~rng:(rng 3) ~bandwidth_bps:1e4 ~delay:Time.zero
      ~queue_bytes:3000 ()
  in
  let delivered = ref 0 in
  for _ = 1 to 10 do
    Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ -> incr delivered)
  done;
  Engine.run engine;
  let s = Plink.stats l ~dir:0 in
  check Alcotest.bool "some queue drops" true (s.Plink.queue_drops > 0);
  check Alcotest.int "conservation" 10 (!delivered + s.Plink.queue_drops)

let test_plink_random_loss () =
  let engine = Engine.create () in
  let l =
    Plink.create ~engine ~rng:(rng 4) ~bandwidth_bps:1e9 ~delay:Time.zero
      ~loss:0.3 ()
  in
  let delivered = ref 0 in
  for _ = 1 to 2000 do
    Plink.transmit l ~dir:0 (udp ~size:100 ()) ~deliver:(fun _ -> incr delivered)
  done;
  Engine.run engine;
  let pct = float_of_int !delivered /. 2000.0 in
  check Alcotest.bool (Printf.sprintf "~70%% delivered (%.2f)" pct) true
    (pct > 0.65 && pct < 0.75)

let test_plink_down_drops_in_flight () =
  let engine = Engine.create () in
  let l =
    Plink.create ~engine ~rng:(rng 5) ~bandwidth_bps:1e9 ~delay:(Time.ms 50) ()
  in
  let delivered = ref 0 in
  Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ -> incr delivered);
  (* Fail the link while the packet is propagating. *)
  ignore (Engine.at engine (Time.ms 10) (fun () -> Plink.set_up l false));
  Engine.run engine;
  check Alcotest.int "in-flight packet lost" 0 !delivered;
  Plink.set_up l true;
  Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ -> incr delivered);
  Engine.run engine;
  check Alcotest.int "works after restore" 1 !delivered

let test_plink_directions_independent () =
  let engine = Engine.create () in
  let l =
    Plink.create ~engine ~rng:(rng 6) ~bandwidth_bps:1e6 ~delay:Time.zero ()
  in
  Plink.transmit l ~dir:0 (udp ()) ~deliver:(fun _ -> ());
  Plink.transmit l ~dir:1 (udp ()) ~deliver:(fun _ -> ());
  check Alcotest.int "dir 0 counted" 1 (Plink.stats l ~dir:0).Plink.sent;
  check Alcotest.int "dir 1 counted" 1 (Plink.stats l ~dir:1).Plink.sent

(* --- cpu ------------------------------------------------------------------ *)

let spawn_counter cpu ~slice ~work_items ~cost =
  let remaining = ref work_items in
  let done_count = ref 0 in
  let proc =
    Cpu.spawn cpu ~slice ~name:"p"
      ~next_cost:(fun () -> if !remaining > 0 then cost else Time.ns (-1))
      ~exec:(fun () ->
        decr remaining;
        incr done_count)
  in
  (proc, done_count)

let test_cpu_dedicated_executes_all () =
  let engine = Engine.create () in
  let cpu =
    Cpu.create ~engine ~rng:(rng 7) ~speed_ghz:2.8 ~contention:Cpu.Dedicated
  in
  let proc, done_count =
    spawn_counter cpu ~slice:(Slice.default_share "s") ~work_items:1000
      ~cost:(Time.us 10)
  in
  Cpu.kick proc;
  Engine.run engine;
  check Alcotest.int "all processed" 1000 !done_count;
  (* 1000 * 10us = 10 ms of CPU. *)
  check Alcotest.bool "cpu time accounted" true
    (Time.compare (Cpu.cpu_time proc) (Time.ms 10) = 0);
  (* Dedicated: wall clock close to CPU time. *)
  check Alcotest.bool "little dilation" true
    (Time.to_ms_f (Engine.now engine) < 11.0)

let test_cpu_scale_cost () =
  let engine = Engine.create () in
  let half =
    Cpu.create ~engine ~rng:(rng 8) ~speed_ghz:1.4 ~contention:Cpu.Dedicated
  in
  check Alcotest.bool "1.4 GHz doubles reference cost" true
    (Time.compare (Cpu.scale_cost half (Time.us 10)) (Time.us 20) = 0)

let test_cpu_contention_dilates () =
  let engine = Engine.create () in
  (* Pathological contention: always 9 runnable competitors -> 10% share. *)
  let cpu =
    Cpu.create ~engine ~rng:(rng 9) ~speed_ghz:2.8
      ~contention:(Cpu.Shared { active_sampler = (fun _ -> 9) })
  in
  let proc, done_count =
    spawn_counter cpu ~slice:(Slice.default_share "s") ~work_items:100
      ~cost:(Time.us 100)
  in
  Cpu.kick proc;
  Engine.run engine;
  check Alcotest.int "all processed eventually" 100 !done_count;
  (* 10 ms of CPU at 10% share -> ~100 ms of wall clock. *)
  check Alcotest.bool
    (Printf.sprintf "x10 dilation (%.1f ms)" (Time.to_ms_f (Engine.now engine)))
    true
    (Time.to_ms_f (Engine.now engine) > 90.0)

let test_cpu_reservation_floors_share () =
  let engine = Engine.create () in
  let cpu =
    Cpu.create ~engine ~rng:(rng 10) ~speed_ghz:2.8
      ~contention:(Cpu.Shared { active_sampler = (fun _ -> 9) })
  in
  let slice = Slice.create ~reservation:0.5 "r" in
  let proc, done_count =
    spawn_counter cpu ~slice ~work_items:100 ~cost:(Time.us 100)
  in
  Cpu.kick proc;
  Engine.run engine;
  check Alcotest.int "all processed" 100 !done_count;
  (* 10 ms of CPU at a 50% reservation -> ~20 ms wall. *)
  check Alcotest.bool
    (Printf.sprintf "floored dilation (%.1f ms)" (Time.to_ms_f (Engine.now engine)))
    true
    (Time.to_ms_f (Engine.now engine) < 25.0)

let test_cpu_realtime_wakes_fast () =
  let engine = Engine.create () in
  let shared () =
    Cpu.create ~engine ~rng:(rng 11) ~speed_ghz:2.8
      ~contention:
        (Cpu.Shared { active_sampler = Vini_phys.Calibration.shared_active_slices () })
  in
  let wake_time slice =
    let cpu = shared () in
    let first = ref Time.zero in
    let fired = ref false in
    let proc =
      Cpu.spawn cpu ~slice ~name:"w"
        ~next_cost:(fun () -> if !fired then Time.ns (-1) else Time.us 1)
        ~exec:(fun () ->
          fired := true;
          first := Engine.now engine)
    in
    let t0 = Engine.now engine in
    Cpu.kick proc;
    Engine.run engine;
    Time.to_sec_f (Time.sub !first t0)
  in
  (* Sample repeatedly: the rt latency bound must hold every time. *)
  let rt_max = ref 0.0 in
  for _ = 1 to 50 do
    rt_max := Float.max !rt_max (wake_time (Slice.pl_vini "rt"))
  done;
  check Alcotest.bool
    (Printf.sprintf "rt wake < 1 ms (max %.4f s)" !rt_max)
    true (!rt_max < 0.001)

let test_cpu_kick_idempotent_while_busy () =
  let engine = Engine.create () in
  let cpu =
    Cpu.create ~engine ~rng:(rng 12) ~speed_ghz:2.8 ~contention:Cpu.Dedicated
  in
  let proc, done_count =
    spawn_counter cpu ~slice:(Slice.default_share "s") ~work_items:5
      ~cost:(Time.us 10)
  in
  Cpu.kick proc;
  Cpu.kick proc;
  Cpu.kick proc;
  Engine.run engine;
  check Alcotest.int "processed once each" 5 !done_count;
  check Alcotest.int "single wakeup" 1 (Cpu.wakeups proc)

(* --- ipstack ---------------------------------------------------------------- *)

let test_ipstack_udp_demux () =
  let engine = Engine.create () in
  let sent = ref [] in
  let s = Ipstack.create ~engine ~local_addr:a1 ~tx:(fun p -> sent := p :: !sent) () in
  let got = ref 0 in
  Ipstack.bind_udp s ~port:7000 (fun _ -> incr got);
  Ipstack.deliver s (Packet.udp ~src:a2 ~dst:a1 ~sport:1 ~dport:7000 (Packet.Bytes_ 1));
  Ipstack.deliver s (Packet.udp ~src:a2 ~dst:a1 ~sport:1 ~dport:7001 (Packet.Bytes_ 1));
  check Alcotest.int "only bound port" 1 !got;
  check Alcotest.int "unmatched counted" 1 (Ipstack.unmatched s)

let test_ipstack_port_conflict () =
  let engine = Engine.create () in
  let s = Ipstack.create ~engine ~local_addr:a1 ~tx:(fun _ -> ()) () in
  Ipstack.bind_udp s ~port:7000 (fun _ -> ());
  Alcotest.check_raises "port in use"
    (Invalid_argument "Ipstack.bind_udp: port 7000 in use") (fun () ->
      Ipstack.bind_udp s ~port:7000 (fun _ -> ()));
  Ipstack.unbind_udp s ~port:7000;
  Ipstack.bind_udp s ~port:7000 (fun _ -> ())

let test_ipstack_echo_like_kernel () =
  let engine = Engine.create () in
  let sent = ref [] in
  let s = Ipstack.create ~engine ~local_addr:a1 ~tx:(fun p -> sent := p :: !sent) () in
  Ipstack.deliver s
    (Packet.icmp ~src:a2 ~dst:a1
       (Packet.Echo_request { ident = 1; icmp_seq = 9; sent_ns = 5; data_len = 56 }));
  match !sent with
  | [ reply ] -> (
      check Alcotest.bool "to sender" true (Addr.equal reply.Packet.dst a2);
      match reply.Packet.proto with
      | Packet.Icmp (Packet.Echo_reply e) ->
          check Alcotest.int "same seq" 9 e.Packet.icmp_seq
      | _ -> Alcotest.fail "not an echo reply")
  | _ -> Alcotest.fail "expected exactly one reply"

let test_ipstack_ephemeral_ports_unique () =
  let engine = Engine.create () in
  let s = Ipstack.create ~engine ~local_addr:a1 ~tx:(fun _ -> ()) () in
  let p1 = Ipstack.alloc_ephemeral s and p2 = Ipstack.alloc_ephemeral s in
  check Alcotest.bool "distinct" true (p1 <> p2);
  check Alcotest.bool "high range" true (p1 >= 49152)

(* --- underlay ------------------------------------------------------------ *)

let chain ~engine () =
  let link a b =
    { Graph.a; b; bandwidth_bps = 1e9; delay = Time.ms 1; loss = 0.0; weight = 1 }
  in
  let g =
    Graph.create ~names:[| "n0"; "n1"; "n2"; "n3" |]
      ~links:[ link 0 1; link 1 2; link 2 3; link 0 3 ]
  in
  Underlay.create ~engine ~rng:(rng 20) ~graph:g ()

let test_underlay_end_to_end () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 and n2 = Underlay.node u 2 in
  let got = ref 0 in
  Ipstack.bind_udp (Pnode.stack n2) ~port:5000 (fun _ -> incr got);
  Pnode.send n0
    (Packet.udp ~src:(Pnode.addr n0) ~dst:(Pnode.addr n2) ~sport:1 ~dport:5000
       (Packet.Bytes_ 100));
  Engine.run engine;
  check Alcotest.int "delivered across two hops" 1 !got

let test_underlay_next_hop_and_reroute () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  (* 0->2 prefers 0-1-2 (cost 2) over 0-3-2 (cost 2)?  Both are 2; the tie
     breaks deterministically to the lower prev.  Fail 0-1 and the only
     path is via 3. *)
  Underlay.set_link_state u 0 1 false;
  check Alcotest.(option int) "rerouted via 3" (Some 3)
    (Underlay.next_hop u ~from:0 ~dst:2)

let test_underlay_upcalls () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let events = ref [] in
  Underlay.subscribe u (fun e -> events := e :: !events);
  Underlay.set_link_state u 0 1 false;
  Underlay.set_link_state u 0 1 false;
  (* no-op: already down *)
  Underlay.set_link_state u 0 1 true;
  check Alcotest.int "two transitions" 2 (List.length !events);
  match List.rev !events with
  | [ Underlay.Link_down (0, 1); Underlay.Link_up (0, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence"

(* The next-hop table against an oracle: the prev-chain walk over
   [Test_topo.oracle_spf]'s tree (Bellman-Ford, lowest-parent ties; no
   code shared with the Dijkstra the tables come from) with the weights
   the underlay routes on, which follow link and end-node state.
   The forwarding table must send a packet on exactly when that next hop
   exists and its link is up, by the slot [Graph.find_slot] gives that
   hop. *)
let oracle_next_hop prev ~from ~dst =
  let rec back v =
    match prev.(v) with
    | None -> None
    | Some p when p = from -> Some v
    | Some p -> back p
  in
  if from = dst then None else back dst

let prop_next_hop_table =
  QCheck.Test.make ~name:"underlay next-hop table matches prev-chain oracle"
    ~count:60
    QCheck.(
      pair
        (pair bool (int_range 2 30))
        (pair (int_bound 10_000) (small_list (triple bool small_nat bool))))
    (fun ((waxman, n), (seed, flips)) ->
      let module Generate = Vini_scenario.Generate in
      let kind = if waxman then Generate.waxman n else Generate.backbone n in
      let graph = Generate.generate { Generate.kind; seed } in
      let engine = Engine.create ~seed () in
      let u = Underlay.create ~engine ~rng:(rng seed) ~graph () in
      let links = Array.of_list (Graph.links graph) in
      List.iter
        (fun (node, i, up) ->
          if node then Underlay.set_node_state u (i mod n) up
          else
            let l = links.(i mod Array.length links) in
            Underlay.set_link_state u l.Graph.a l.Graph.b up)
        flips;
      let weight_of (l : Graph.link) =
        let up =
          Plink.is_up (Underlay.plink u l.a l.b)
          && Underlay.node_is_up u l.a && Underlay.node_is_up u l.b
        in
        if up then l.weight else 100_000_000
      in
      List.for_all
        (fun from ->
          let _, prev = Test_topo.oracle_spf ~weight_of graph from in
          List.for_all
            (fun dst ->
              let want = oracle_next_hop prev ~from ~dst in
              let fwd_want =
                match want with
                | Some v when Plink.is_up (Underlay.plink u from v) ->
                    Graph.find_slot graph from v
                | _ -> -1
              in
              Underlay.next_hop u ~from ~dst = want
              && Underlay.forward_slot u ~from ~dst = fwd_want)
            (Graph.nodes graph))
        (Graph.nodes graph)
      (* The table is destination-major: a node id past either end is
         still rejected, not read from a neighbouring row. *)
      && List.for_all
           (fun (from, dst) ->
             match Underlay.forward_slot u ~from ~dst with
             | exception Invalid_argument _ -> true
             | _ -> false)
           [ (n, 0); (0, n); (-1, n - 1); (n - 1, -1) ])

(* Node addresses run from 198.32.154.10 across the 154 -> 155 boundary
   (node 246 is 198.32.155.0); a destination resolves to a node by its
   offset from the base, and an address outside the node range names no
   node. *)
let test_underlay_address_boundary () =
  let n = 300 in
  let link a =
    { Graph.a; b = a + 1; bandwidth_bps = 1e9; delay = Time.ms 1; loss = 0.0;
      weight = 1 }
  in
  let graph =
    Graph.create
      ~names:(Array.init n (Printf.sprintf "n%d"))
      ~links:(List.init (n - 1) link)
  in
  let engine = Engine.create () in
  let u = Underlay.create ~engine ~rng:(rng 21) ~graph () in
  check Alcotest.string "node 245" "198.32.154.255"
    (Addr.to_string (Underlay.addr u 245));
  check Alcotest.string "node 250" "198.32.155.4"
    (Addr.to_string (Underlay.addr u 250));
  List.iter
    (fun from ->
      let _, prev = Graph.dijkstra graph from in
      List.iter
        (fun dst ->
          let want =
            Option.value ~default:(-1) (oracle_next_hop prev ~from ~dst)
          in
          let s = Underlay.forward_slot u ~from ~dst in
          check Alcotest.int
            (Printf.sprintf "forward_slot %d -> %d" from dst)
            want
            (if s < 0 then -1 else Graph.slot_target graph s))
        [ 245; 246; 299 ])
    [ 0; 200; 246; 299 ];
  let src = Underlay.node u 200 and dst = Underlay.node u 250 in
  let got = ref 0 in
  Ipstack.bind_udp (Pnode.stack dst) ~port:5000 (fun _ -> incr got);
  let send_to a =
    Pnode.send src
      (Packet.udp ~src:(Pnode.addr src) ~dst:a ~sport:1 ~dport:5000
         (Packet.Bytes_ 100))
  in
  send_to (Pnode.addr dst);
  Engine.run engine;
  check Alcotest.int "delivered to 198.32.155.4" 1 !got;
  List.iteri
    (fun i a ->
      send_to a;
      Engine.run engine;
      check Alcotest.int
        ("blackholed " ^ Addr.to_string a)
        (i + 1) (Underlay.blackholed u))
    [ Addr.of_string "198.32.154.9"; Addr.add (Underlay.addr u (n - 1)) 1 ]

let test_underlay_ttl_expiry () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 in
  let exceeded = ref 0 in
  Ipstack.set_icmp_handler (Pnode.stack n0) (fun pkt ->
      match pkt.Packet.proto with
      | Packet.Icmp (Packet.Time_exceeded _) -> incr exceeded
      | _ -> ());
  Pnode.send n0
    (Packet.udp ~ttl:1 ~src:(Pnode.addr n0) ~dst:(Underlay.addr u 2) ~sport:1
       ~dport:5000 (Packet.Bytes_ 10));
  Engine.run engine;
  check Alcotest.int "time exceeded returned" 1 !exceeded

let test_underlay_loopback () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 in
  let got = ref 0 in
  Ipstack.bind_udp (Pnode.stack n0) ~port:5000 (fun _ -> incr got);
  Pnode.send n0
    (Packet.udp ~src:(Pnode.addr n0) ~dst:(Pnode.addr n0) ~sport:1 ~dport:5000
       (Packet.Bytes_ 10));
  Engine.run engine;
  check Alcotest.int "self delivery" 1 !got

(* --- htb ------------------------------------------------------------------ *)

module Htb = Vini_phys.Htb

let test_htb_respects_root_rate () =
  let engine = Engine.create () in
  let out_bytes = ref 0 in
  let htb =
    Htb.create ~engine ~rate_bps:1e6
      ~out:(fun p -> out_bytes := !out_bytes + Packet.size p)
      ()
  in
  let c = Htb.add_class htb ~name:"a" ~queue_bytes:1_000_000 () in
  for _ = 1 to 200 do
    ignore (Htb.enqueue htb c (udp ()))
  done;
  Engine.run ~until:(Time.sec 1) engine;
  (* 1 Mb/s = 125 KB/s; allow the burst allowance. *)
  check Alcotest.bool
    (Printf.sprintf "root rate enforced (%d B in 1 s)" !out_bytes)
    true
    (!out_bytes > 100_000 && !out_bytes < 150_000)

let test_htb_assured_guarantee () =
  (* Two classes share a 1 Mb/s root; 'guaranteed' has 600 kb/s assured and
     offers exactly that; 'bulk' floods.  Guaranteed must get its rate. *)
  let engine = Engine.create () in
  let htb = Htb.create ~engine ~rate_bps:1e6 ~out:(fun _ -> ()) () in
  let g = Htb.add_class htb ~name:"guaranteed" ~assured_bps:6e5 ~queue_bytes:1_000_000 () in
  let b = Htb.add_class htb ~name:"bulk" ~queue_bytes:4_000_000 () in
  (* Offer: guaranteed 600 kb/s paced, bulk as fast as possible. *)
  let rec offer_g i =
    if i < 150 then begin
      ignore (Htb.enqueue htb g (udp ()));
      (* 1028 B at 600 kb/s -> every ~13.7 ms *)
      ignore (Engine.after engine (Time.us 13_700) (fun () -> offer_g (i + 1)))
    end
  in
  offer_g 0;
  for _ = 1 to 2000 do
    ignore (Htb.enqueue htb b (udp ()))
  done;
  Engine.run ~until:(Time.sec 2) engine;
  let g_bps = float_of_int (Htb.class_sent_bytes g * 8) /. 2.0 in
  let b_bps = float_of_int (Htb.class_sent_bytes b * 8) /. 2.0 in
  check Alcotest.bool
    (Printf.sprintf "guarantee met (%.0f bps)" g_bps)
    true
    (g_bps > 5.2e5 && g_bps < 6.8e5);
  check Alcotest.bool
    (Printf.sprintf "bulk got the rest (%.0f bps)" b_bps)
    true
    (b_bps > 2.5e5 && b_bps < 4.8e5)

let test_htb_ceiling () =
  let engine = Engine.create () in
  let htb = Htb.create ~engine ~rate_bps:10e6 ~out:(fun _ -> ()) () in
  let capped = Htb.add_class htb ~name:"capped" ~ceil_bps:1e6 ~queue_bytes:8_000_000 () in
  for _ = 1 to 5000 do
    ignore (Htb.enqueue htb capped (udp ()))
  done;
  Engine.run ~until:(Time.sec 2) engine;
  let bps = float_of_int (Htb.class_sent_bytes capped * 8) /. 2.0 in
  check Alcotest.bool
    (Printf.sprintf "ceiling enforced (%.0f bps)" bps)
    true
    (bps > 0.8e6 && bps < 1.25e6)

let test_htb_borrows_idle_capacity () =
  (* Alone on the link, a 0-assured class may borrow up to the root rate. *)
  let engine = Engine.create () in
  let htb = Htb.create ~engine ~rate_bps:1e6 ~out:(fun _ -> ()) () in
  let c = Htb.add_class htb ~name:"only" ~queue_bytes:1_000_000 () in
  for _ = 1 to 200 do
    ignore (Htb.enqueue htb c (udp ()))
  done;
  Engine.run ~until:(Time.sec 1) engine;
  let bps = float_of_int (Htb.class_sent_bytes c * 8) in
  check Alcotest.bool (Printf.sprintf "borrows to root (%.0f bps)" bps) true
    (bps > 0.8e6)

let test_htb_class_validation () =
  let engine = Engine.create () in
  let htb = Htb.create ~engine ~rate_bps:1e6 ~out:(fun _ -> ()) () in
  ignore (Htb.add_class htb ~name:"x" ());
  Alcotest.check_raises "duplicate" (Invalid_argument "Htb.add_class: duplicate class")
    (fun () -> ignore (Htb.add_class htb ~name:"x" ()));
  Alcotest.check_raises "assured>ceil"
    (Invalid_argument "Htb.add_class: assured above ceiling") (fun () ->
      ignore (Htb.add_class htb ~name:"y" ~assured_bps:2e6 ~ceil_bps:1e6 ()))

let test_htb_on_pnode () =
  (* Two slices' traffic through one node's HTB: the guaranteed slice keeps
     its rate despite the flood. *)
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 and n1 = Underlay.node u 1 in
  Pnode.enable_egress_htb n0 ~rate_bps:10e6;
  Pnode.set_egress_class n0 ~name:"careful" ~assured_bps:4e6 ();
  Pnode.set_egress_class n0 ~name:"noisy" ();
  let got_careful = ref 0 in
  Ipstack.bind_udp (Pnode.stack n1) ~port:5001 (fun p ->
      got_careful := !got_careful + Packet.size p);
  Ipstack.bind_udp (Pnode.stack n1) ~port:5002 (fun _ -> ());
  (* careful offers 4 Mb/s paced; noisy floods 60 Mb/s. *)
  let mk port = 
    Packet.udp ~src:(Pnode.addr n0) ~dst:(Pnode.addr n1) ~sport:1 ~dport:port
      (Packet.Bytes_ 1000)
  in
  let rec careful i =
    if i < 2000 then begin
      Pnode.send_as n0 ~cls:"careful" (mk 5001);
      ignore (Engine.after engine (Time.us 2056) (fun () -> careful (i + 1)))
    end
  in
  careful 0;
  let rec noisy i =
    if i < 20_000 then begin
      Pnode.send_as n0 ~cls:"noisy" (mk 5002);
      ignore (Engine.after engine (Time.us 137) (fun () -> noisy (i + 1)))
    end
  in
  noisy 0;
  Engine.run ~until:(Time.sec 2) engine;
  let careful_bps = float_of_int (!got_careful * 8) /. 2.0 in
  check Alcotest.bool
    (Printf.sprintf "careful slice protected (%.1f Mb/s)" (careful_bps /. 1e6))
    true
    (careful_bps > 3.3e6);
  match Pnode.egress_class_stats n0 ~name:"noisy" with
  | Some (_, drops) ->
      check Alcotest.bool "noisy slice dropped at the htb" true (drops > 0)
  | None -> Alcotest.fail "stats expected"

(* --- process ----------------------------------------------------------------- *)

let test_process_drains_socket () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 and n1 = Underlay.node u 1 in
  let handled = ref 0 in
  let proc =
    Process.create ~node:n1 ~slice:(Slice.pl_vini "s") ~name:"p"
      ~handler:(fun _ -> incr handled)
      ()
  in
  ignore (Process.open_socket proc ~port:33000 ());
  for _ = 1 to 20 do
    Pnode.send n0
      (Packet.udp ~src:(Pnode.addr n0) ~dst:(Pnode.addr n1) ~sport:1
         ~dport:33000 (Packet.Bytes_ 500))
  done;
  Engine.run engine;
  check Alcotest.int "all drained" 20 !handled;
  check Alcotest.int "processed counter" 20 (Process.packets_processed proc);
  check Alcotest.bool "cpu billed" true
    (Time.compare (Process.cpu_time proc) Time.zero > 0)

let test_process_rcvbuf_overflow () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n0 = Underlay.node u 0 and n1 = Underlay.node u 1 in
  let proc =
    Process.create ~node:n1 ~slice:(Slice.default_share "s") ~name:"p"
      ~handler:(fun _ -> ())
      ()
  in
  (* A tiny receive buffer and a burst far larger than it: when packets
     land while the process waits to be scheduled, the tail drops. *)
  ignore (Process.open_socket proc ~port:33000 ~rcvbuf_bytes:3000 ());
  for _ = 1 to 50 do
    Pnode.send n0
      (Packet.udp ~src:(Pnode.addr n0) ~dst:(Pnode.addr n1) ~sport:1
         ~dport:33000 (Packet.Bytes_ 1400))
  done;
  Engine.run engine;
  check Alcotest.bool
    (Printf.sprintf "socket overflow drops (%d)" (Process.socket_drops proc))
    true
    (Process.socket_drops proc > 0)

let test_process_injection_queue () =
  let engine = Engine.create () in
  let u = chain ~engine () in
  let n1 = Underlay.node u 1 in
  let handled = ref 0 in
  let proc =
    Process.create ~node:n1 ~slice:(Slice.pl_vini "s") ~name:"p"
      ~handler:(fun _ -> incr handled)
      ()
  in
  let inject = Process.open_queue proc () in
  for _ = 1 to 10 do
    ignore (inject (udp ()))
  done;
  Engine.run engine;
  check Alcotest.int "injected packets handled" 10 !handled

(* Round-robin service.  One process on a dedicated-CPU node reads a
   socket (source 0) and two local queues (sources 1 and 2), in that
   opening order; every packet carries its source's tag in [usport], and
   the handler logs tags in service order.  Each slice costs 1 ms, so
   the tests can act while a service event is pending. *)
let rr_fixture () =
  let engine = Engine.create () in
  let cpu =
    Cpu.create ~engine ~rng:(rng 30) ~speed_ghz:2.8 ~contention:Cpu.Dedicated
  in
  let node =
    Pnode.create ~engine ~rng:(rng 31) ~id:0 ~name:"n" ~addr:a2 ~cpu ()
  in
  let served = ref [] in
  let proc =
    Process.create ~node ~slice:(Slice.default_share "s") ~name:"p"
      ~cost_of:(fun _ -> Time.ms 1)
      ~handler:(fun pkt ->
        match pkt.Packet.proto with
        | Packet.Udp u -> served := u.Packet.usport :: !served
        | _ -> ())
      ()
  in
  ignore (Process.open_socket proc ~port:33000 ());
  let qa = Process.open_queue proc () and qb = Process.open_queue proc () in
  let pkt tag =
    Packet.udp ~src:a1 ~dst:a2 ~sport:tag ~dport:33000 (Packet.Bytes_ 100)
  in
  (* Tags: 0 = socket, 1 = queue A, 2 = queue B. *)
  let inject = function
    | 0 -> Ipstack.deliver (Pnode.stack node) (pkt 0)
    | 1 -> check Alcotest.bool "queue A accepts" true (qa (pkt 1))
    | _ -> check Alcotest.bool "queue B accepts" true (qb (pkt 2))
  in
  let order () = List.rev !served in
  (engine, node, proc, inject, order)

let test_process_round_robin_order () =
  let engine, _, proc, inject, order = rr_fixture () in
  List.iter inject [ 0; 0; 0; 1; 1; 1; 2 ];
  Engine.run engine;
  (* One packet per source in turn; B runs dry and is skipped. *)
  check Alcotest.(list int) "backlogged sources in turn" [ 0; 1; 2; 0; 1; 0; 1 ]
    (order ());
  (* A was served last, so the next round starts at B. *)
  List.iter inject [ 0; 1; 2 ];
  Engine.run engine;
  check Alcotest.(list int) "next round starts after the last served"
    [ 0; 1; 2; 0; 1; 0; 1; 2; 0; 1 ]
    (order ());
  check Alcotest.int "processed" 10 (Process.packets_processed proc)

let test_process_round_robin_at_exec () =
  let engine, _, proc, inject, order = rr_fixture () in
  List.iter inject [ 2; 2 ];
  (* B's first packet is costed and in service by 0.5 ms; the socket,
     earlier in round-robin order, receives a packet meanwhile. *)
  ignore
    (Engine.at engine (Time.us 500) (fun () ->
         check Alcotest.int "woken" 1 (Process.wakeups proc);
         check Alcotest.(list int) "nothing served yet" [] (order ());
         inject 0));
  Engine.run engine;
  check Alcotest.(list int) "served in order at exec time" [ 0; 2; 2 ]
    (order ())

let test_process_restart_with_pending_service () =
  let engine, node, proc, inject, order = rr_fixture () in
  inject 1;
  (* The crash lands inside the 1 ms slice costed for that packet, and
     the restart (with fresh input) before the slice ends. *)
  ignore (Engine.at engine (Time.us 300) (fun () -> Process.crash proc));
  ignore
    (Engine.at engine (Time.us 500) (fun () ->
         Process.restart proc;
         inject 2));
  Engine.run engine;
  check Alcotest.(list int) "serves again after restart" [ 2 ] (order ());
  check Alcotest.int "one wakeup" 1 (Process.wakeups proc);
  check Alcotest.bool "one slice of cpu" true
    (Time.compare (Process.cpu_time proc)
       (Cpu.scale_cost (Pnode.cpu node) (Time.ms 1))
    = 0);
  (* And it keeps serving afterwards. *)
  inject 0;
  Engine.run engine;
  check Alcotest.(list int) "then serves new input" [ 2; 0 ] (order ());
  check Alcotest.int "a second episode" 2 (Process.wakeups proc)

let suite =
  [
    Alcotest.test_case "plink serialization+delay" `Quick test_plink_serialization_and_delay;
    Alcotest.test_case "plink fifo backlog" `Quick test_plink_fifo_backlog;
    Alcotest.test_case "plink queue drop" `Quick test_plink_queue_drop;
    Alcotest.test_case "plink random loss" `Quick test_plink_random_loss;
    Alcotest.test_case "plink down drops in-flight" `Quick test_plink_down_drops_in_flight;
    Alcotest.test_case "plink directions independent" `Quick test_plink_directions_independent;
    Alcotest.test_case "cpu dedicated executes all" `Quick test_cpu_dedicated_executes_all;
    Alcotest.test_case "cpu cost scaling" `Quick test_cpu_scale_cost;
    Alcotest.test_case "cpu contention dilates" `Quick test_cpu_contention_dilates;
    Alcotest.test_case "cpu reservation floors share" `Quick test_cpu_reservation_floors_share;
    Alcotest.test_case "cpu realtime wakes fast" `Quick test_cpu_realtime_wakes_fast;
    Alcotest.test_case "cpu kick idempotent" `Quick test_cpu_kick_idempotent_while_busy;
    Alcotest.test_case "ipstack udp demux" `Quick test_ipstack_udp_demux;
    Alcotest.test_case "ipstack port conflict" `Quick test_ipstack_port_conflict;
    Alcotest.test_case "ipstack kernel echo" `Quick test_ipstack_echo_like_kernel;
    Alcotest.test_case "ipstack ephemeral ports" `Quick test_ipstack_ephemeral_ports_unique;
    Alcotest.test_case "underlay end to end" `Quick test_underlay_end_to_end;
    Alcotest.test_case "underlay reroute (masking)" `Quick test_underlay_next_hop_and_reroute;
    Alcotest.test_case "underlay upcalls" `Quick test_underlay_upcalls;
    QCheck_alcotest.to_alcotest prop_next_hop_table;
    Alcotest.test_case "underlay ttl expiry" `Quick test_underlay_ttl_expiry;
    Alcotest.test_case "underlay loopback" `Quick test_underlay_loopback;
    Alcotest.test_case "underlay address boundary" `Quick
      test_underlay_address_boundary;
    Alcotest.test_case "htb root rate" `Quick test_htb_respects_root_rate;
    Alcotest.test_case "htb assured guarantee" `Quick test_htb_assured_guarantee;
    Alcotest.test_case "htb ceiling" `Quick test_htb_ceiling;
    Alcotest.test_case "htb borrows idle capacity" `Quick test_htb_borrows_idle_capacity;
    Alcotest.test_case "htb class validation" `Quick test_htb_class_validation;
    Alcotest.test_case "htb protects a slice on a node" `Quick test_htb_on_pnode;
    Alcotest.test_case "process drains socket" `Quick test_process_drains_socket;
    Alcotest.test_case "process rcvbuf overflow" `Quick test_process_rcvbuf_overflow;
    Alcotest.test_case "process injection queue" `Quick test_process_injection_queue;
    Alcotest.test_case "process round-robin order" `Quick test_process_round_robin_order;
    Alcotest.test_case "process round-robin at exec time" `Quick
      test_process_round_robin_at_exec;
    Alcotest.test_case "process restart with pending service" `Quick
      test_process_restart_with_pending_service;
  ]
