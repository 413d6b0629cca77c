(* Tests for the Click data-plane elements: FIB trie, elements, shaper,
   failure injection, NAPT. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Addr = Vini_net.Addr
module Prefix = Vini_net.Prefix
module Packet = Vini_net.Packet
module Fib = Vini_click.Fib
module Fib_reference = Vini_oracle.Fib_reference
module Element = Vini_click.Element
module Shaper = Vini_click.Shaper
module Faulty = Vini_click.Faulty
module Napt = Vini_click.Napt

let check = Alcotest.check
let a1 = Addr.of_string "10.0.0.1"
let a2 = Addr.of_string "10.0.0.2"

let udp ?(size = 100) ?(src = a1) ?(dst = a2) ?(sport = 1000) ?(dport = 2000) () =
  Packet.udp ~src ~dst ~sport ~dport (Packet.Bytes_ size)

(* --- FIB ---------------------------------------------------------------- *)

let test_fib_longest_match () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "10.0.0.0/8") "eight";
  Fib.add t (Prefix.of_string "10.1.0.0/16") "sixteen";
  Fib.add t (Prefix.of_string "10.1.2.0/24") "twentyfour";
  let look s = Fib.lookup t (Addr.of_string s) in
  check Alcotest.(option string) "most specific" (Some "twentyfour") (look "10.1.2.9");
  check Alcotest.(option string) "middle" (Some "sixteen") (look "10.1.9.9");
  check Alcotest.(option string) "least" (Some "eight") (look "10.9.9.9");
  check Alcotest.(option string) "miss" None (look "11.0.0.1")

let test_fib_default_route () =
  let t = Fib.create () in
  Fib.add t Prefix.default_route "default";
  check Alcotest.(option string) "matches anything" (Some "default")
    (Fib.lookup t (Addr.of_string "203.0.113.7"))

let test_fib_replace_and_remove () =
  let t = Fib.create () in
  let p = Prefix.of_string "10.0.0.0/8" in
  Fib.add t p 1;
  Fib.add t p 2;
  check Alcotest.int "replaced, not duplicated" 1 (Fib.length t);
  check Alcotest.(option int) "new value" (Some 2) (Fib.lookup t a1);
  Fib.remove t p;
  check Alcotest.(option int) "removed" None (Fib.lookup t a1);
  Fib.remove t p;
  check Alcotest.int "idempotent remove" 0 (Fib.length t)

let test_fib_lookup_prefix_reports_match () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "10.1.0.0/16") ();
  match Fib.lookup_prefix t (Addr.of_string "10.1.2.3") with
  | Some (p, ()) ->
      check Alcotest.string "matched prefix" "10.1.0.0/16" (Prefix.to_string p)
  | None -> Alcotest.fail "expected a match"

let test_fib_entries_sorted () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "192.168.0.0/16") 3;
  Fib.add t (Prefix.of_string "10.0.0.0/8") 1;
  Fib.add t (Prefix.of_string "10.1.0.0/16") 2;
  check
    Alcotest.(list (pair string int))
    "sorted entries"
    [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("192.168.0.0/16", 3) ]
    (List.map (fun (p, v) -> (Prefix.to_string p, v)) (Fib.entries t))

let test_fib_host_routes () =
  let t = Fib.create () in
  Fib.add t (Prefix.make a1 32) "host";
  check Alcotest.(option string) "exact host" (Some "host") (Fib.lookup t a1);
  check Alcotest.(option string) "neighbour misses" None (Fib.lookup t a2)

(* Property: trie lookup equals linear longest-prefix scan. *)
let prop_fib_vs_linear =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (int_range 1 40)
             (pair (int_bound 0xFFFFFF) (int_range 0 32)))
          (list_size (int_range 1 40) (int_bound 0xFFFFFF)))
  in
  QCheck.Test.make ~name:"fib trie = linear reference" ~count:200 gen
    (fun (entries, probes) ->
      let t = Fib.create () in
      let table =
        List.map
          (fun (i, len) ->
            let p = Prefix.make (Addr.of_int (i * 251)) len in
            Fib.add t p (Prefix.to_string p);
            p)
          entries
      in
      let linear addr =
        List.fold_left
          (fun best p ->
            if Prefix.contains p addr then
              match best with
              | Some b when Prefix.length b >= Prefix.length p -> best
              | _ -> Some p
            else best)
          None table
        |> Option.map Prefix.to_string
      in
      List.for_all
        (fun i ->
          let addr = Addr.of_int (i * 163) in
          Fib.lookup t addr = linear addr)
        probes)

(* Property: the path-compressed trie answers exactly like the retained
   one-bit-per-node reference trie, through randomized add/remove
   interleavings (removals exercise the path-compression split/merge
   cases the linear model above can't reach). *)
let prop_fib_vs_reference =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (int_range 1 60)
             (triple (int_bound 0xFFFFFF) (int_range 0 32) bool))
          (list_size (int_range 1 60) (int_bound 0xFFFFFF)))
  in
  QCheck.Test.make ~name:"fib compressed trie = reference trie" ~count:200 gen
    (fun (ops, probes) ->
      let t = Fib.create () and r = Fib_reference.create () in
      List.iter
        (fun (i, len, rm) ->
          let p = Prefix.make (Addr.of_int (i * 251)) len in
          if rm then begin
            Fib.remove t p;
            Fib_reference.remove r p
          end
          else begin
            let v = Prefix.to_string p in
            Fib.add t p v;
            Fib_reference.add r p v
          end)
        ops;
      Fib.length t = Fib_reference.length r
      && Fib.entries t = Fib_reference.entries r
      && List.for_all
           (fun i ->
             let addr = Addr.of_int (i * 163) in
             Fib.lookup t addr = Fib_reference.lookup r addr
             && Fib.lookup_prefix t addr = Fib_reference.lookup_prefix r addr)
           probes)

let test_fib_cache_counts_hits () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "10.0.0.0/8") "A";
  let addr = Addr.of_string "10.1.2.3" in
  let h0 = Fib.cache_hits t and m0 = Fib.cache_misses t in
  check Alcotest.(option string) "first lookup" (Some "A") (Fib.lookup t addr);
  check Alcotest.int "first is a miss" (m0 + 1) (Fib.cache_misses t);
  check Alcotest.(option string) "second lookup" (Some "A") (Fib.lookup t addr);
  check Alcotest.int "second is a hit" (h0 + 1) (Fib.cache_hits t);
  check Alcotest.int "no extra miss" (m0 + 1) (Fib.cache_misses t)

let test_fib_cache_invalidated_on_update () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "10.0.0.0/8") "A";
  let addr = Addr.of_string "10.1.2.3" in
  check Alcotest.(option string) "warm" (Some "A") (Fib.lookup t addr);
  check Alcotest.(option string) "cached" (Some "A") (Fib.lookup t addr);
  (* A more specific route must take effect immediately: add invalidates
     the whole cache, so the stale "A" can never be served. *)
  Fib.add t (Prefix.of_string "10.1.0.0/16") "B";
  check Alcotest.(option string) "no stale entry after add" (Some "B")
    (Fib.lookup t addr);
  Fib.remove t (Prefix.of_string "10.1.0.0/16");
  check Alcotest.(option string) "no stale entry after remove" (Some "A")
    (Fib.lookup t addr);
  Fib.clear t;
  check Alcotest.(option string) "no stale entry after clear" None
    (Fib.lookup t addr)

let test_fib_cache_negative_results () =
  let t = Fib.create () in
  let addr = Addr.of_string "192.0.2.1" in
  check Alcotest.(option string) "no route" None (Fib.lookup t addr);
  let h0 = Fib.cache_hits t in
  check Alcotest.(option string) "still none" None (Fib.lookup t addr);
  check Alcotest.int "negative result cached" (h0 + 1) (Fib.cache_hits t);
  Fib.add t (Prefix.of_string "192.0.2.0/24") "R";
  check Alcotest.(option string) "route appears despite cached miss"
    (Some "R") (Fib.lookup t addr)

(* Destinations that differ only in the third octet must not share a
   cache slot: after one round of misses, alternating over the four
   flows hits every time. *)
let test_fib_cache_third_octet () =
  let t = Fib.create () in
  Fib.add t (Prefix.of_string "10.9.0.0/16") "R";
  let dsts =
    Array.init 4 (fun i -> Addr.of_string (Printf.sprintf "10.9.%d.1" i))
  in
  Array.iter (fun a -> ignore (Fib.lookup t a)) dsts;
  let h0 = Fib.cache_hits t and m0 = Fib.cache_misses t in
  for _ = 1 to 3 do
    Array.iter (fun a -> ignore (Fib.lookup t a)) dsts
  done;
  check Alcotest.int "no further misses" m0 (Fib.cache_misses t);
  check Alcotest.int "every lookup hits" (h0 + 12) (Fib.cache_hits t)

(* --- elements ------------------------------------------------------------ *)

let test_element_counters () =
  let sink = Element.discard "sink" in
  Element.push sink (udp ~size:100 ());
  Element.push sink (udp ~size:50 ());
  check Alcotest.int "packets" 2 (Element.packets sink);
  check Alcotest.int "bytes" (128 + 78) (Element.bytes sink)

let test_element_tee () =
  let s1 = Element.discard "s1" and s2 = Element.discard "s2" in
  let t = Element.tee "t" [ s1; s2 ] in
  Element.push t (udp ());
  check Alcotest.int "copy 1" 1 (Element.packets s1);
  check Alcotest.int "copy 2" 1 (Element.packets s2)

let test_element_classifier () =
  let small = Element.discard "small" and big = Element.discard "big" in
  let c =
    Element.classifier "c"
      ~rules:[ ((fun p -> Packet.size p < 100), small) ]
      ~default:big
  in
  Element.push c (udp ~size:10 ());
  Element.push c (udp ~size:500 ());
  check Alcotest.int "small rule" 1 (Element.packets small);
  check Alcotest.int "default" 1 (Element.packets big)

let test_element_queue_bound () =
  let sink = Element.discard "sink" in
  let q = Element.queue "q" ~capacity_bytes:50 ~out:sink () in
  Element.push q (udp ~size:100 ());
  check Alcotest.int "oversize dropped" 0 (Element.packets sink);
  check Alcotest.int "drop counted" 1 (Element.queue_drops q)

(* --- shaper --------------------------------------------------------------- *)

let test_shaper_limits_rate () =
  let engine = Engine.create () in
  let sink = Element.discard "sink" in
  (* 1 Mb/s, minimal burst: 100 packets of 1028 bytes need ~0.82 s. *)
  let sh =
    Shaper.create ~engine ~rate_bps:1e6 ~burst_bytes:2000 ~queue_bytes:200_000
      ~out:sink "sh"
  in
  for _ = 1 to 100 do
    Element.push (Shaper.element sh) (udp ~size:1000 ())
  done;
  Engine.run ~until:(Time.ms 400) engine;
  let halfway = Element.bytes sink in
  check Alcotest.bool
    (Printf.sprintf "rate limited (%d bytes at 0.4s)" halfway)
    true
    (halfway > 30_000 && halfway < 70_000);
  Engine.run engine;
  check Alcotest.int "all delivered eventually" 100 (Element.packets sink)

let test_shaper_drops_when_full () =
  let engine = Engine.create () in
  let sink = Element.discard "sink" in
  let sh =
    Shaper.create ~engine ~rate_bps:1e4 ~burst_bytes:1000 ~queue_bytes:3000
      ~out:sink "sh"
  in
  for _ = 1 to 50 do
    Element.push (Shaper.element sh) (udp ~size:1000 ())
  done;
  check Alcotest.bool "tail dropped" true (Shaper.drops sh > 0)

let test_shaper_set_rate () =
  let engine = Engine.create () in
  let sink = Element.discard "sink" in
  let sh =
    Shaper.create ~engine ~rate_bps:1e3 ~burst_bytes:100 ~queue_bytes:1_000_000
      ~out:sink "sh"
  in
  for _ = 1 to 20 do
    Element.push (Shaper.element sh) (udp ~size:1000 ())
  done;
  Shaper.set_rate sh 1e9;
  Engine.run ~until:(Time.sec 1) engine;
  check Alcotest.int "fast after set_rate" 20 (Element.packets sink)

(* --- failure injection ----------------------------------------------------- *)

let test_faulty_modes () =
  let rng = Vini_std.Rng.create 3 in
  let sink = Element.discard "sink" in
  let f = Faulty.create ~rng ~out:sink "drop" in
  Element.push (Faulty.element f) (udp ());
  check Alcotest.int "pass mode" 1 (Element.packets sink);
  Faulty.set_mode f Faulty.Fail;
  for _ = 1 to 10 do
    Element.push (Faulty.element f) (udp ())
  done;
  check Alcotest.int "fail mode drops all" 1 (Element.packets sink);
  check Alcotest.int "drops counted" 10 (Faulty.dropped f);
  Faulty.set_mode f (Faulty.Lossy 0.5);
  for _ = 1 to 1000 do
    Element.push (Faulty.element f) (udp ())
  done;
  let passed = Element.packets sink - 1 in
  check Alcotest.bool
    (Printf.sprintf "lossy ~50%% (%d/1000)" passed)
    true
    (passed > 400 && passed < 600);
  Alcotest.check_raises "bad loss rate"
    (Invalid_argument "Faulty.set_mode: loss rate") (fun () ->
      Faulty.set_mode f (Faulty.Lossy 1.5))

(* --- NAPT -------------------------------------------------------------------- *)

let ext = Addr.of_string "198.32.154.226"
let web = Addr.of_string "64.236.16.20"

let test_napt_udp_roundtrip () =
  let n = Napt.create ~public_addr:ext () in
  let out = udp ~src:a1 ~dst:web ~sport:5555 ~dport:80 () in
  match Napt.translate_out n out with
  | None -> Alcotest.fail "udp must translate"
  | Some t -> (
      check Alcotest.bool "src is public" true (Addr.equal t.Packet.src ext);
      let nat_port =
        match t.Packet.proto with
        | Packet.Udp u -> u.Packet.usport
        | _ -> Alcotest.fail "not udp"
      in
      check Alcotest.bool "fresh port" true (nat_port >= 61000);
      (* Reply from the web server back to the NAT port. *)
      let reply =
        Packet.udp ~src:web ~dst:ext ~sport:80 ~dport:nat_port (Packet.Bytes_ 1)
      in
      match Napt.translate_in n reply with
      | None -> Alcotest.fail "reply must match"
      | Some r ->
          check Alcotest.bool "back to inner host" true
            (Addr.equal r.Packet.dst a1);
          (match r.Packet.proto with
          | Packet.Udp u -> check Alcotest.int "inner port" 5555 u.Packet.udport
          | _ -> Alcotest.fail "not udp"))

let test_napt_stable_mapping () =
  let n = Napt.create ~public_addr:ext () in
  let p1 = Option.get (Napt.translate_out n (udp ~src:a1 ~dst:web ~sport:1 ~dport:80 ())) in
  let p2 = Option.get (Napt.translate_out n (udp ~src:a1 ~dst:web ~sport:1 ~dport:80 ())) in
  let port p =
    match p.Packet.proto with Packet.Udp u -> u.Packet.usport | _ -> -1
  in
  check Alcotest.int "same flow, same port" (port p1) (port p2);
  check Alcotest.int "one mapping" 1 (Napt.mappings n);
  let p3 = Option.get (Napt.translate_out n (udp ~src:a2 ~dst:web ~sport:1 ~dport:80 ())) in
  check Alcotest.bool "different flow, different port" true (port p3 <> port p1)

let test_napt_rejects_strangers () =
  let n = Napt.create ~public_addr:ext () in
  let stray = Packet.udp ~src:web ~dst:ext ~sport:80 ~dport:61007 (Packet.Bytes_ 1) in
  check Alcotest.bool "no mapping, no entry" true (Napt.translate_in n stray = None);
  let not_ours = udp ~src:web ~dst:a1 ~sport:80 ~dport:61000 () in
  check Alcotest.bool "wrong destination" true (Napt.translate_in n not_ours = None)

let test_napt_icmp () =
  let n = Napt.create ~public_addr:ext () in
  let echo =
    Packet.icmp ~src:a1 ~dst:web
      (Packet.Echo_request { ident = 77; icmp_seq = 1; sent_ns = 0; data_len = 56 })
  in
  match Napt.translate_out n echo with
  | None -> Alcotest.fail "icmp echo must translate"
  | Some t -> (
      let nat_id =
        match t.Packet.proto with
        | Packet.Icmp (Packet.Echo_request e) -> e.Packet.ident
        | _ -> Alcotest.fail "not an echo"
      in
      let reply =
        Packet.icmp ~src:web ~dst:ext
          (Packet.Echo_reply { ident = nat_id; icmp_seq = 1; sent_ns = 0; data_len = 56 })
      in
      match Napt.translate_in n reply with
      | None -> Alcotest.fail "echo reply must match"
      | Some r -> (
          check Alcotest.bool "to inner host" true (Addr.equal r.Packet.dst a1);
          match r.Packet.proto with
          | Packet.Icmp (Packet.Echo_reply e) ->
              check Alcotest.int "ident restored" 77 e.Packet.ident
          | _ -> Alcotest.fail "not an echo reply"))

let test_napt_untranslatable () =
  let n = Napt.create ~public_addr:ext () in
  let err =
    Packet.icmp ~src:a1 ~dst:web
      (Packet.Time_exceeded { orig_src = a1; orig_dst = web })
  in
  check Alcotest.bool "icmp errors not translated" true
    (Napt.translate_out n err = None)

(* Property: out-then-in returns the original source endpoint. *)
let prop_napt_roundtrip =
  QCheck.Test.make ~name:"napt out/in is identity on the flow" ~count:200
    QCheck.(triple (int_bound 0xFFFF) (int_range 1 60_000) (int_range 1 60_000))
    (fun (host, sport, dport) ->
      let n = Napt.create ~public_addr:ext () in
      let inner_src = Addr.of_int (Addr.to_int a1 + (host mod 250)) in
      let out = udp ~src:inner_src ~dst:web ~sport ~dport () in
      match Napt.translate_out n out with
      | None -> false
      | Some t -> (
          let nat_port =
            match t.Packet.proto with
            | Packet.Udp u -> u.Packet.usport
            | _ -> -1
          in
          let reply =
            Packet.udp ~src:web ~dst:ext ~sport:dport ~dport:nat_port
              (Packet.Bytes_ 1)
          in
          match Napt.translate_in n reply with
          | Some r -> (
              Addr.equal r.Packet.dst inner_src
              &&
              match r.Packet.proto with
              | Packet.Udp u -> u.Packet.udport = sport
              | _ -> false)
          | None -> false))

(* --- batched data plane ------------------------------------------------- *)

module Batch = Vini_click.Batch
module Ring = Vini_click.Ring
module Pool = Vini_net.Pool

let test_ring_pump_order () =
  let seen = ref [] in
  let sink = Element.make "sink" (fun pkt -> seen := pkt.Packet.id :: !seen) in
  let ring = Ring.create ~capacity:16 in
  let batch = Batch.create ~capacity:8 in
  let pkts = List.init 10 (fun _ -> udp ()) in
  List.iter (fun p -> check Alcotest.bool "push" true (Ring.push ring p)) pkts;
  let n1 = Element.pump ring ~into:batch ~out:sink ~max:8 in
  let n2 = Element.pump ring ~into:batch ~out:sink ~max:8 in
  check Alcotest.int "first burst" 8 n1;
  check Alcotest.int "second burst" 2 n2;
  check Alcotest.int "ring drained" 0 (Ring.length ring);
  check
    Alcotest.(list int)
    "FIFO order across bursts"
    (List.map (fun (p : Packet.t) -> p.Packet.id) pkts)
    (List.rev !seen);
  check Alcotest.int "sink counted all" 10 (Element.packets sink)

let test_ring_backpressure () =
  let ring = Ring.create ~capacity:2 in
  check Alcotest.bool "1st" true (Ring.push ring (udp ()));
  check Alcotest.bool "2nd" true (Ring.push ring (udp ()));
  check Alcotest.bool "full ring refuses" false (Ring.push ring (udp ()));
  check Alcotest.int "length unchanged" 2 (Ring.length ring)

(* The ring against a FIFO model, over capacities that give it chunks of
   1 to 64 slots and batches that do and do not match a chunk, so both
   [pop_into] routes run: a whole aligned chunk is handed over by
   [Batch.exchange], anything else is copied.  A drained batch must keep
   its packets while the ring is refilled over the slots it came from,
   and [Batch.bytes] must track every way a batch changes. *)
let prop_ring_matches_fifo =
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map (fun k -> `Push k) (int_range 1 80));
          (3, map (fun m -> `Drain m) (int_range 1 80));
          (1, return `Pop);
          (1, return `Clear);
          (1, map (fun k -> `Edit k) (int_range 0 3)) ])
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        triple
          (oneofl [ 1; 3; 32; 64; 128; 192; 256 ])
          (oneofl [ 1; 16; 32; 64; 65 ])
          (list_size (int_range 1 60) op))
      ~print:(fun (c, b, ops) ->
        Printf.sprintf "capacity=%d batch=%d ops=%d" c b (List.length ops))
  in
  QCheck.Test.make ~name:"ring pop_into = FIFO model (copy and exchange)"
    ~count:300 gen (fun (capacity, bcap, ops) ->
      let ring = Ring.create ~capacity in
      let batch = Batch.create ~capacity:bcap in
      let model = Queue.create () in
      let ids b = List.init (Batch.length b) (fun i -> (Batch.get b i).Packet.id) in
      let size_sum b =
        List.fold_left ( + ) 0
          (List.init (Batch.length b) (fun i -> Packet.size (Batch.get b i)))
      in
      let next = ref 0 in
      let ok = ref true in
      let expect c = if not c then ok := false in
      List.iter
        (fun o ->
          let held = ids batch in
          (match o with
          | `Push k ->
              for _ = 1 to k do
                incr next;
                let p = udp ~size:(20 + (!next mod 97)) () in
                let full = Queue.length model = capacity in
                expect (Ring.push ring p = not full);
                if not full then Queue.push p.Packet.id model
              done;
              (* The refill may reuse the slots the batch was drained
                 from; the batch must not see it. *)
              expect (ids batch = held)
          | `Drain m ->
              Batch.clear batch;
              let n = Ring.pop_into ring batch ~max:m in
              let want = List.init n (fun _ -> Queue.pop model) in
              expect (n = min m (min bcap (n + Queue.length model)));
              expect (ids batch = want)
          | `Pop -> (
              match Ring.pop ring with
              | Some p -> expect (Queue.length model > 0 && Queue.pop model = p.Packet.id)
              | None -> expect (Queue.is_empty model))
          | `Clear ->
              Ring.clear ring;
              Queue.clear model
          | `Edit k ->
              let n = Batch.length batch in
              if n > 0 then (
                match k with
                | 0 -> Batch.truncate batch (n / 2)
                | 1 -> Batch.set batch 0 (udp ~size:1234 ())
                | 2 -> Batch.unsafe_set batch (n - 1) (udp ~size:9 ())
                | _ -> ignore (Batch.add batch (udp ~size:77 ()))));
          expect (Batch.bytes batch = size_sum batch);
          expect (Ring.length ring = Queue.length model))
        ops;
      !ok
      && Ring.pushes ring >= Ring.pops ring + Ring.length ring)

(* A pool drained mid-burst degrades deterministically: takes fail with
   exact, schedule-independent counts, and recycling restores service. *)
let test_pool_exhaustion_degrades () =
  let pool = Pool.create ~capacity:8 ~mint:(fun _ -> udp ()) () in
  let got = ref [] in
  for _ = 1 to 12 do
    match Pool.take_opt pool with
    | Some p -> got := p :: !got
    | None -> ()
  done;
  check Alcotest.int "took what existed" 8 (List.length !got);
  check Alcotest.int "exhaustions counted" 4 (Pool.exhaustions pool);
  check Alcotest.int "empty" 0 (Pool.available pool);
  (match !got with
  | a :: b :: c :: _ ->
      Pool.recycle pool a;
      Pool.recycle pool b;
      Pool.recycle pool c
  | _ -> Alcotest.fail "unreachable");
  check Alcotest.int "recycles restore service" 3 (Pool.available pool);
  (match Pool.take_opt pool with
  | Some _ -> ()
  | None -> Alcotest.fail "take after recycle must succeed");
  (* Overfill protection: more recycles than takes is counted, not
     trusted. *)
  let tiny = Pool.create ~capacity:1 ~mint:(fun _ -> udp ()) () in
  Pool.recycle tiny (udp ());
  check Alcotest.int "overfill ignored" 1 (Pool.overfills tiny)

(* The batched path delivers the same packets in the same order as a
   batch-size-1 run, through a chain whose faulty element draws one RNG
   decision per packet (same seed, same draws, same survivors). *)
let prop_batched_equals_single =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair (int_range 1 7)
          (list_size (int_range 1 60) (pair (int_range 0 3) (int_range 20 1400))))
      ~print:(fun (b, l) -> Printf.sprintf "burst=%d n=%d" b (List.length l))
  in
  QCheck.Test.make ~name:"batched chain = per-packet chain (order)" ~count:100
    gen (fun (burst, specs) ->
      let dsts =
        [| a2; Addr.of_string "10.0.0.3"; Addr.of_string "10.0.0.4"; a1 |]
      in
      let pkts =
        List.map (fun (d, size) -> udp ~dst:dsts.(d) ~size ()) specs
      in
      let run ~batched =
        let seen = ref [] in
        let sink =
          Element.make "sink" (fun pkt -> seen := pkt.Packet.id :: !seen)
        in
        let faulty =
          Faulty.create ~rng:(Vini_std.Rng.create 77) ~out:sink "lossy"
        in
        Faulty.set_mode faulty (Faulty.Lossy 0.3);
        let el = Faulty.element faulty in
        if not batched then List.iter (fun p -> Element.push el p) pkts
        else begin
          let b = Batch.create ~capacity:burst in
          List.iter
            (fun p ->
              if not (Batch.add b p) then begin
                Element.push_batch el b;
                Batch.clear b;
                ignore (Batch.add b p)
              end)
            pkts;
          if not (Batch.is_empty b) then Element.push_batch el b
        end;
        List.rev !seen
      in
      run ~batched:false = run ~batched:true)

(* The tentpole invariant: steady-state batched forwarding allocates
   nothing on the minor heap.  Pool-sourced packets cycle ring -> burst ->
   faulty -> sink -> pool; after warmup, [Gc.minor_words] across a long
   window must not move at all. *)
let test_batched_zero_alloc () =
  let pool =
    Pool.create ~capacity:64 ~mint:(fun i -> udp ~size:(64 + i) ()) ()
  in
  let sink =
    Element.make_batch "sink"
      ~single:(fun pkt -> Pool.recycle pool pkt)
      ~batch:(fun b ->
        for i = 0 to Batch.length b - 1 do
          Pool.recycle pool (Batch.unsafe_get b i)
        done)
  in
  let faulty = Faulty.create ~rng:(Vini_std.Rng.create 7) ~out:sink "pass" in
  let el = Faulty.element faulty in
  let ring = Ring.create ~capacity:64 in
  let batch = Batch.create ~capacity:32 in
  let breath () =
    for _ = 1 to 32 do
      if Pool.available pool > 0 then ignore (Ring.push ring (Pool.take pool))
    done;
    ignore (Element.pump ring ~into:batch ~out:el ~max:32)
  in
  (* Warmup forces the lazy filler, fills stats fields, and settles the
     pool/ring population. *)
  for _ = 1 to 10 do breath () done;
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to 1_000 do breath () done;
  let w1 = (Gc.quick_stat ()).Gc.minor_words in
  check Alcotest.int "zero minor words across steady-state window" 0
    (int_of_float (w1 -. w0));
  check Alcotest.int "no packet lost by the cycle" 64
    (Pool.available pool + Ring.length ring)

(* Corrupting a pooled packet swaps a fresh damaged record into the batch;
   the copy is what arrives (and fails the receiver's checksum), while the
   pool population stays at capacity because the sink recycles whatever
   record reaches it. *)
let test_batched_corruption_replaces_in_place () =
  let pool = Pool.create ~capacity:16 ~mint:(fun _ -> udp ()) () in
  let delivered = ref 0 and corrupt = ref 0 in
  let sink =
    Element.make "sink" (fun pkt ->
        if Packet.intact pkt then incr delivered else incr corrupt;
        Pool.recycle pool pkt)
  in
  let faulty = Faulty.create ~rng:(Vini_std.Rng.create 3) ~out:sink "corr" in
  Faulty.set_mode faulty (Faulty.Corrupting 0.5);
  let el = Faulty.element faulty in
  let b = Batch.create ~capacity:16 in
  for _ = 1 to 16 do ignore (Batch.add b (Pool.take pool)) done;
  Element.push_batch el b;
  check Alcotest.int "all packets arrived" 16 (!delivered + !corrupt);
  check Alcotest.int "corruption happened" (Faulty.corrupted faulty) !corrupt;
  check Alcotest.bool "some corrupted" true (!corrupt > 0);
  check Alcotest.int "pool back at capacity" 16 (Pool.available pool)

let suite =
  [
    Alcotest.test_case "fib longest match" `Quick test_fib_longest_match;
    Alcotest.test_case "fib default route" `Quick test_fib_default_route;
    Alcotest.test_case "fib replace/remove" `Quick test_fib_replace_and_remove;
    Alcotest.test_case "fib reports matched prefix" `Quick
      test_fib_lookup_prefix_reports_match;
    Alcotest.test_case "fib entries sorted" `Quick test_fib_entries_sorted;
    Alcotest.test_case "fib host routes" `Quick test_fib_host_routes;
    QCheck_alcotest.to_alcotest prop_fib_vs_linear;
    QCheck_alcotest.to_alcotest prop_fib_vs_reference;
    Alcotest.test_case "fib cache counts hits" `Quick test_fib_cache_counts_hits;
    Alcotest.test_case "fib cache invalidated on update" `Quick
      test_fib_cache_invalidated_on_update;
    Alcotest.test_case "fib cache negative results" `Quick
      test_fib_cache_negative_results;
    Alcotest.test_case "fib cache separates third octets" `Quick
      test_fib_cache_third_octet;
    Alcotest.test_case "element counters" `Quick test_element_counters;
    Alcotest.test_case "element tee" `Quick test_element_tee;
    Alcotest.test_case "element classifier" `Quick test_element_classifier;
    Alcotest.test_case "element queue bound" `Quick test_element_queue_bound;
    Alcotest.test_case "shaper limits rate" `Quick test_shaper_limits_rate;
    Alcotest.test_case "shaper drops when full" `Quick test_shaper_drops_when_full;
    Alcotest.test_case "shaper set_rate" `Quick test_shaper_set_rate;
    Alcotest.test_case "failure injection modes" `Quick test_faulty_modes;
    Alcotest.test_case "napt udp roundtrip" `Quick test_napt_udp_roundtrip;
    Alcotest.test_case "napt stable mapping" `Quick test_napt_stable_mapping;
    Alcotest.test_case "napt rejects strangers" `Quick test_napt_rejects_strangers;
    Alcotest.test_case "napt icmp echo" `Quick test_napt_icmp;
    Alcotest.test_case "napt untranslatable" `Quick test_napt_untranslatable;
    QCheck_alcotest.to_alcotest prop_napt_roundtrip;
    Alcotest.test_case "ring pump preserves order" `Quick test_ring_pump_order;
    Alcotest.test_case "ring backpressure" `Quick test_ring_backpressure;
    QCheck_alcotest.to_alcotest prop_ring_matches_fifo;
    Alcotest.test_case "pool exhaustion degrades deterministically" `Quick
      test_pool_exhaustion_degrades;
    Alcotest.test_case "batched steady state allocates nothing" `Quick
      test_batched_zero_alloc;
    Alcotest.test_case "batched corruption swaps fresh records" `Quick
      test_batched_corruption_replaces_in_place;
    QCheck_alcotest.to_alcotest prop_batched_equals_single;
  ]
