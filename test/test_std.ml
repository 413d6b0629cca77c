(* Unit and property tests for Vini_std: rng, heap, eventq, stats,
   fifo. *)

module Rng = Vini_std.Rng
module Heap = Vini_std.Heap
module Eventq = Vini_std.Eventq
module Stats = Vini_std.Stats
module Fifo = Vini_std.Fifo
module Histogram = Vini_std.Histogram

let check = Alcotest.check

(* --- rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    check Alcotest.bool "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Rng.bits64 b) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_copy_same_future () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_uniform_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng 2.0 9.0 in
    check Alcotest.bool "in [2,9)" true (v >= 2.0 && v < 9.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 4.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "exp mean ~4 (got %.3f)" mean)
    true
    (Float.abs (mean -. 4.0) < 0.15)

let test_rng_normal_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let s = Stats.create () in
  for _ = 1 to n do
    Stats.add s (Rng.normal rng ~mean:10.0 ~stddev:2.0)
  done;
  check Alcotest.bool "normal mean" true (Float.abs (Stats.mean s -. 10.0) < 0.1);
  check Alcotest.bool "normal std" true (Float.abs (Stats.stddev s -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 19 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same elements" (Array.init 50 Fun.id) sorted

(* The stream itself, pinned: the MD5 of the first 1,000 [bits64] (one
   16-digit hex line each) and the first three values, for seeds 1 and
   42 and for the child [split] takes from seed 42, so that no change to
   the generator's state or arithmetic can move a seeded run unnoticed. *)
let test_rng_stream_pinned () =
  let pin name r ~digest ~first =
    let b = Buffer.create 17_000 in
    let head = ref [] in
    for i = 1 to 1000 do
      let v = Rng.bits64 r in
      if i <= 3 then head := v :: !head;
      Buffer.add_string b (Printf.sprintf "%016Lx\n" v)
    done;
    check Alcotest.(list int64) (name ^ " first draws") first (List.rev !head);
    check Alcotest.string (name ^ " 1000 draws") digest
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  pin "seed 1" (Rng.create 1) ~digest:"540d9f573223596257c67d22f773bd54"
    ~first:[ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L ];
  pin "seed 42" (Rng.create 42) ~digest:"4fac9cfe924389ea25d0265b237226e3"
    ~first:[ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L ];
  pin "split of seed 42"
    (Rng.split (Rng.create 42))
    ~digest:"4dd3881cfcf0e8114e37ef9fc7edf126"
    ~first:[ 0x5599b3e06d073327L; 0xd6171d07a31128dfL; 0xed057ba08584c10bL ]

(* --- heap -------------------------------------------------------------- *)

let test_heap_sorted_drain () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_heap_stability () =
  (* Equal keys must drain in insertion order. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let order =
    List.filter_map
      (fun _ -> Option.map snd (Heap.pop h))
      [ (); (); (); () ]
  in
  check Alcotest.(list string) "stable" [ "z"; "a"; "b"; "c" ] order

let test_heap_peek_length () =
  let h = Heap.create ~cmp:Int.compare in
  check Alcotest.(option int) "empty peek" None (Heap.peek h);
  Heap.push h 4;
  Heap.push h 2;
  check Alcotest.(option int) "peek min" (Some 2) (Heap.peek h);
  check Alcotest.int "length" 2 (Heap.length h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let test_heap_pop_exn () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "empty pop_exn"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --- eventq -------------------------------------------------------------- *)

type eventq_op =
  | Push of int
  | Pop
  | Pop_exn
  | Peek
  | Compact of int
  | Clear

let show_eventq_op = function
  | Push k -> Printf.sprintf "push %d" k
  | Pop -> "pop"
  | Pop_exn -> "pop_exn"
  | Peek -> "peek"
  | Compact m -> Printf.sprintf "compact %d" m
  | Clear -> "clear"

(* The engine's queue against the stable heap on (clamped key, seq), op
   for op: pushes with tie-dense, negative, huge and spread keys, both
   pops, peek, [min_key], [length], [iter], [compact] and [clear].  The
   queue starts at capacity 2, so it grows several times and then
   recycles the slots that pops and compaction free. *)
let prop_eventq_matches_heap =
  let open QCheck in
  let max_key = max_int / 2 in
  let gen_key =
    Gen.frequency
      [
        (6, Gen.int_range 0 8);
        (1, Gen.int_range (-1000) (-1));
        (1, Gen.int_range (max_key - 3) max_int);
        (2, Gen.int_range 0 1_000_000);
      ]
  in
  let gen_op =
    Gen.frequency
      [
        (10, Gen.map (fun k -> Push k) gen_key);
        (3, Gen.return Pop);
        (3, Gen.return Pop_exn);
        (2, Gen.return Peek);
        (1, Gen.map (fun m -> Compact m) (Gen.int_range 2 5));
        (1, Gen.return Clear);
      ]
  in
  let arb =
    make
      ~print:(fun ops -> String.concat "; " (List.map show_eventq_op ops))
      Gen.(list_size (int_range 100 400) gen_op)
  in
  Test.make ~name:"eventq pop order = stable heap on (key, seq)" ~count:200 arb
    (fun ops ->
      (* Ids start at 1 and the dummy is 0, which every [compact]
         predicate calls dead, as the engine's cancelled dummy handle is. *)
      let q = Eventq.create ~capacity:2 ~dummy:0 () in
      let model =
        Heap.create ~cmp:(fun (k1, s1, _) (k2, s2, _) ->
            match Int.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c)
      in
      let clamp k = if k < 0 then 0 else if k > max_key then max_key else k in
      let seq = ref 0 and next_id = ref 1 in
      let head () = Option.map (fun (_, _, id) -> id) (Heap.peek model) in
      let ids_of_model () =
        List.sort Int.compare (List.map (fun (_, _, id) -> id) (Heap.to_list model))
      in
      let step op =
        (match op with
        | Push k ->
            let id = !next_id in
            incr next_id;
            Eventq.push q ~key:k id;
            Heap.push model (clamp k, !seq, id);
            incr seq
        | Pop ->
            let want = Option.map (fun (_, _, id) -> id) (Heap.pop model) in
            if Eventq.pop q <> want then Test.fail_report "pop"
        | Pop_exn -> (
            match Heap.pop model with
            | Some (_, _, id) ->
                if Eventq.pop_exn q <> id then Test.fail_report "pop_exn"
            | None -> (
                match Eventq.pop_exn q with
                | _ -> Test.fail_report "pop_exn on empty returned"
                | exception Invalid_argument _ -> ()))
        | Peek ->
            (* [iter] first: [peek] may reorganise the heap. *)
            let seen = ref [] in
            Eventq.iter q (fun id -> seen := id :: !seen);
            if List.sort Int.compare !seen <> ids_of_model () then
              Test.fail_report "iter";
            if Eventq.peek q <> head () then Test.fail_report "peek"
        | Compact m ->
            let dead id = id mod m = 0 in
            let entries = Heap.to_list model in
            let survivors = List.filter (fun (_, _, id) -> not (dead id)) entries in
            Heap.clear model;
            List.iter (Heap.push model) survivors;
            let removed = Eventq.compact q ~dead in
            if removed <> List.length entries - List.length survivors then
              Test.fail_report "compact count"
        | Clear ->
            Heap.clear model;
            Eventq.clear q);
        if Eventq.length q <> Heap.length model then Test.fail_report "length";
        if Eventq.is_empty q <> Heap.is_empty model then
          Test.fail_report "is_empty";
        let want_min =
          match Heap.peek model with Some (k, _, _) -> k | None -> max_int
        in
        if Eventq.min_key q <> want_min then Test.fail_report "min_key"
      in
      List.iter step ops;
      (* Drain: the survivors come out in the model's order. *)
      let rec drain () =
        match Heap.pop model with
        | None -> Eventq.pop q = None
        | Some (_, _, id) -> Eventq.pop q = Some id && drain ()
      in
      drain ())

(* Popped, compacted and cleared values must not stay reachable from the
   queue; survivors must.  Allocation and popping happen in functions of
   their own so no stack slot of this one holds a value. *)
let[@inline never] eventq_fill q w ~first n =
  for i = first to first + n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Eventq.push q ~key:(i mod 7) v
  done

let[@inline never] eventq_pop_some q n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Eventq.pop q))
  done;
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Eventq.pop_exn q))
  done

let test_eventq_releases_values () =
  let n = 200 and refill = 50 in
  let q = Eventq.create ~capacity:4 ~dummy:(ref (-1)) () in
  let w = Weak.create (n + refill) in
  let live_matches_queue what =
    Gc.full_major ();
    let queued = Hashtbl.create n in
    Eventq.iter q (fun v -> Hashtbl.replace queued !v ());
    for i = 0 to Weak.length w - 1 do
      check Alcotest.bool
        (Printf.sprintf "%s: value %d reachable iff queued" what i)
        (Hashtbl.mem queued i) (Weak.check w i)
    done
  in
  eventq_fill q w ~first:0 n;
  eventq_pop_some q 30;
  live_matches_queue "after pops";
  ignore (Eventq.compact q ~dead:(fun v -> !v mod 3 = 0));
  live_matches_queue "after compact";
  (* Refill the freed slots, pop again, then clear. *)
  eventq_fill q w ~first:n refill;
  eventq_pop_some q 20;
  live_matches_queue "after slot reuse";
  Eventq.clear q;
  live_matches_queue "after clear";
  check Alcotest.int "cleared" 0 (Eventq.length q)

(* --- stats ------------------------------------------------------------- *)

let feq msg a b = check (Alcotest.float 1e-9) msg a b

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  feq "mean" 2.5 (Stats.mean s);
  feq "min" 1.0 (Stats.min s);
  feq "max" 4.0 (Stats.max s);
  feq "sum" 10.0 (Stats.sum s);
  check Alcotest.int "count" 4 (Stats.count s);
  feq "mdev" 1.0 (Stats.mdev s);
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  feq "empty mean" 0.0 (Stats.mean s);
  feq "empty stddev" 0.0 (Stats.stddev s);
  check Alcotest.bool "is_empty" true (Stats.is_empty s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  feq "p50" 50.0 (Stats.percentile s 50.0);
  feq "p99" 99.0 (Stats.percentile s 99.0);
  feq "p100" 100.0 (Stats.percentile s 100.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  feq "merged mean" 2.5 (Stats.mean m);
  check Alcotest.int "merged count" 4 (Stats.count m)

let test_jitter_constant_stream () =
  (* Perfectly periodic packets -> zero jitter. *)
  let j = Stats.Jitter.create () in
  for i = 0 to 50 do
    let t = float_of_int i *. 0.01 in
    Stats.Jitter.observe j ~sent:t ~received:(t +. 0.005)
  done;
  feq "no jitter" 0.0 (Stats.Jitter.value j)

let test_jitter_variable_stream () =
  let j = Stats.Jitter.create () in
  let rng = Rng.create 3 in
  for i = 0 to 500 do
    let t = float_of_int i *. 0.01 in
    Stats.Jitter.observe j ~sent:t ~received:(t +. 0.005 +. Rng.float rng 0.002)
  done;
  check Alcotest.bool "positive jitter" true (Stats.Jitter.value j > 1e-5)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

(* --- fifo -------------------------------------------------------------- *)

let test_fifo_order () =
  let f = Fifo.create ~size_of:(fun _ -> 1) () in
  List.iter (fun x -> ignore (Fifo.push f x)) [ 1; 2; 3 ];
  check Alcotest.(option int) "fifo order" (Some 1) (Fifo.pop f);
  check Alcotest.(option int) "fifo order" (Some 2) (Fifo.pop f);
  check Alcotest.(option int) "fifo order" (Some 3) (Fifo.pop f);
  check Alcotest.(option int) "empty" None (Fifo.pop f)

let test_fifo_packet_bound () =
  let f = Fifo.create ~max_packets:2 ~size_of:(fun _ -> 1) () in
  check Alcotest.bool "1st" true (Fifo.push f 1);
  check Alcotest.bool "2nd" true (Fifo.push f 2);
  check Alcotest.bool "3rd rejected" false (Fifo.push f 3);
  check Alcotest.int "drop counted" 1 (Fifo.drops f)

let test_fifo_byte_bound () =
  let f = Fifo.create ~max_bytes:100 ~size_of:Fun.id () in
  check Alcotest.bool "60 fits" true (Fifo.push f 60);
  check Alcotest.bool "50 rejected" false (Fifo.push f 50);
  check Alcotest.bool "40 fits" true (Fifo.push f 40);
  check Alcotest.int "bytes" 100 (Fifo.bytes f);
  ignore (Fifo.pop f);
  check Alcotest.int "bytes drain" 40 (Fifo.bytes f)

let test_fifo_clear () =
  let f = Fifo.create ~size_of:(fun _ -> 7) () in
  ignore (Fifo.push f 1);
  Fifo.clear f;
  check Alcotest.bool "empty after clear" true (Fifo.is_empty f);
  check Alcotest.int "bytes zero" 0 (Fifo.bytes f)

(* --- histogram ---------------------------------------------------------- *)

(* The log-bucketed histogram must agree with the exact (sample-keeping)
   Stats accumulator to within its documented quantile error.  Buckets are
   20 per decade (width ratio 10^(1/20) ~ 1.122), so the geometric-midpoint
   estimate is within ~6% of the true value, plus nearest-rank wobble. *)
let test_histogram_vs_stats () =
  let rng = Rng.create 90210 in
  let h = Histogram.create () and s = Stats.create () in
  for _ = 1 to 20_000 do
    (* Latency-shaped: exponential with a 1 ms mean. *)
    let v = Rng.exponential rng 0.001 in
    Histogram.add h v;
    Stats.add s v
  done;
  check Alcotest.int "count" (Stats.count s) (Histogram.count h);
  let feq what a b =
    let rel = Float.abs (a -. b) /. Float.abs b in
    if rel > 0.08 then
      Alcotest.failf "%s: histogram %g vs exact %g (rel err %.3f)" what a b rel
  in
  feq "mean" (Histogram.mean h) (Stats.mean s);
  feq "sum" (Histogram.sum h) (Stats.sum s);
  check (Alcotest.float 1e-12) "min exact" (Stats.min s) (Histogram.min h);
  check (Alcotest.float 1e-12) "max exact" (Stats.max s) (Histogram.max h);
  List.iter
    (fun p ->
      feq
        (Printf.sprintf "p%g" p)
        (Histogram.percentile h p) (Stats.percentile s p))
    [ 10.0; 50.0; 90.0; 95.0; 99.0 ]

let test_histogram_nonpositive () =
  let h = Histogram.create () in
  Histogram.add h 0.0;
  Histogram.add h (-3.5);
  Histogram.add h 1.0;
  check Alcotest.int "count" 3 (Histogram.count h);
  match Histogram.buckets h with
  | (lo, hi, n) :: _ ->
      check Alcotest.bool "leading bucket is the non-positive one"
        true (lo = neg_infinity && hi = 0.0);
      check Alcotest.int "two non-positive samples" 2 n
  | [] -> Alcotest.fail "no buckets"

let test_histogram_merge_clear () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do Histogram.add a (float_of_int i) done;
  for i = 101 to 200 do Histogram.add b (float_of_int i) done;
  let m = Histogram.merge a b in
  check Alcotest.int "merged count" 200 (Histogram.count m);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Histogram.min m);
  check (Alcotest.float 1e-9) "merged max" 200.0 (Histogram.max m);
  let p50 = Histogram.percentile m 50.0 in
  if p50 < 85.0 || p50 > 115.0 then
    Alcotest.failf "merged p50 %g out of range" p50;
  Histogram.clear a;
  check Alcotest.int "cleared" 0 (Histogram.count a);
  check Alcotest.bool "empty" true (Histogram.is_empty a)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy future" `Quick test_rng_copy_same_future;
    Alcotest.test_case "rng uniform range" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng normal moments" `Quick test_rng_normal_moments;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "heap sorted drain" `Quick test_heap_sorted_drain;
    Alcotest.test_case "heap stability" `Quick test_heap_stability;
    Alcotest.test_case "heap peek/length/clear" `Quick test_heap_peek_length;
    Alcotest.test_case "heap pop_exn raises" `Quick test_heap_pop_exn;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_eventq_matches_heap;
    Alcotest.test_case "eventq releases popped values" `Quick
      test_eventq_releases_values;
    Alcotest.test_case "stats basic moments" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "jitter constant stream" `Quick test_jitter_constant_stream;
    Alcotest.test_case "jitter variable stream" `Quick test_jitter_variable_stream;
    QCheck_alcotest.to_alcotest prop_stats_mean_bounds;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "fifo packet bound" `Quick test_fifo_packet_bound;
    Alcotest.test_case "fifo byte bound" `Quick test_fifo_byte_bound;
    Alcotest.test_case "fifo clear" `Quick test_fifo_clear;
    Alcotest.test_case "histogram vs exact stats" `Quick test_histogram_vs_stats;
    Alcotest.test_case "histogram non-positive bucket" `Quick
      test_histogram_nonpositive;
    Alcotest.test_case "histogram merge/clear" `Quick test_histogram_merge_clear;
  ]
