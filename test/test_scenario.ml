(* Tests for the Internet-scale scenario generator (DESIGN.md §17):
   seeded topology generation and its vini.topo/1 interchange format,
   the lazy heavy-tailed workload stream, the fluid background-load
   model's conservation law, and the spec-language / Vini.start
   integration of hybrid fidelity. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Generate = Vini_scenario.Generate
module Workload = Vini_scenario.Workload
module Fluid = Vini_scenario.Fluid
module Spec_lang = Vini_core.Spec_lang
module Vini = Vini_core.Vini
module Json = Vini_std.Json

let check = Alcotest.check

let mentions ~frag s =
  let n = String.length frag in
  let rec go i = (i + n <= String.length s) && (String.sub s i n = frag || go (i + 1)) in
  go 0

(* An arbitrary generator spec from two small integers: covers all three
   kinds with in-range parameters. *)
let spec_of ~pick ~n ~seed =
  let kind =
    match pick mod 3 with
    | 0 -> Generate.waxman (2 + (n mod 40))
    | 1 -> Generate.fat_tree (2 * (1 + (n mod 4)))
    | _ -> Generate.backbone (2 + (n mod 64))
  in
  { Generate.kind; seed }

(* --- generation properties ----------------------------------------------- *)

let prop_document_deterministic =
  QCheck.Test.make ~name:"same (kind, params, seed) => byte-identical document"
    ~count:60
    QCheck.(triple (int_bound 2) (int_bound 1_000) (int_bound 10_000))
    (fun (pick, n, seed) ->
      let spec = spec_of ~pick ~n ~seed in
      String.equal (Generate.document spec) (Generate.document spec))

let prop_generated_connected =
  QCheck.Test.make ~name:"generated substrates are connected" ~count:60
    QCheck.(triple (int_bound 2) (int_bound 1_000) (int_bound 10_000))
    (fun (pick, n, seed) ->
      Graph.is_connected (Generate.generate (spec_of ~pick ~n ~seed)))

let prop_delay_weight_monotone =
  QCheck.Test.make ~name:"link delay and IGP weight are monotone in distance"
    ~count:200
    QCheck.(pair (float_range 0.0 6_000.0) (float_range 0.0 6_000.0))
    (fun (km1, km2) ->
      let lo, hi = if km1 <= km2 then (km1, km2) else (km2, km1) in
      let d_lo = Generate.delay_of_km lo and d_hi = Generate.delay_of_km hi in
      Time.compare d_lo d_hi <= 0
      && Generate.weight_of_delay d_lo <= Generate.weight_of_delay d_hi)

(* --- the vini.topo/1 format ---------------------------------------------- *)

let test_topo_roundtrip () =
  let spec = { Generate.kind = Generate.backbone 24; seed = 5 } in
  let g = Generate.generate spec in
  let g' =
    match Json.of_string (Generate.document spec) with
    | Error e -> Alcotest.failf "reparse: %s" e
    | Ok j -> (
        match Generate.of_json j with
        | Error e -> Alcotest.failf "of_json: %s" e
        | Ok g' -> g')
  in
  check Alcotest.string "label survives" (Graph.label g) (Graph.label g');
  check Alcotest.int "nodes survive" (Graph.node_count g) (Graph.node_count g');
  check Alcotest.int "links survive" (Graph.link_count g) (Graph.link_count g');
  List.iter2
    (fun (a : Graph.link) (b : Graph.link) ->
      check Alcotest.int "endpoint a" a.Graph.a b.Graph.a;
      check Alcotest.int "endpoint b" a.Graph.b b.Graph.b;
      check Alcotest.int "delay" 0 (Time.compare a.Graph.delay b.Graph.delay);
      check Alcotest.int "weight" a.Graph.weight b.Graph.weight)
    (Graph.links g) (Graph.links g')

let test_topo_rejects_wrong_schema () =
  match Generate.of_json (Json.Obj [ ("schema", Json.Str "vini.metrics/1") ]) with
  | Ok _ -> Alcotest.fail "accepted a metrics document as a topology"
  | Error e ->
      check Alcotest.bool "error names the schema" true
        (mentions ~frag:"vini.topo/1" e)

(* A two-node vini.topo/1 document whose one link has the given fields.
   Each malformed link must come back as a labelled error that names it,
   not load and then fail in [Underlay.create]. *)
let one_link_doc ?(bandwidth_bps = 1e9) ?(loss = 0.0) ?(weight = 1) () =
  Json.Obj
    [
      ("schema", Json.Str Generate.schema_version);
      ("nodes", Json.Arr [ Json.Str "sea"; Json.Str "chi" ]);
      ( "links",
        Json.Arr
          [
            Json.Obj
              [
                ("a", Json.Num 0.0);
                ("b", Json.Num 1.0);
                ("bandwidth_bps", Json.Num bandwidth_bps);
                ("delay_ns", Json.Num 1e6);
                ("loss", Json.Num loss);
                ("weight", Json.Num (float_of_int weight));
              ];
          ] );
    ]

let rejects_link ~what doc () =
  match Generate.of_json doc with
  | Ok _ -> Alcotest.failf "loaded a link with %s" what
  | Error e ->
      check Alcotest.bool ("labelled: " ^ e) true (mentions ~frag:"vini.topo:" e);
      check Alcotest.bool ("names the link: " ^ e) true
        (mentions ~frag:"sea-chi" e);
      check Alcotest.bool ("names the field: " ^ e) true (mentions ~frag:what e)

(* --- workload properties -------------------------------------------------- *)

let pull n stream = List.init n (fun _ -> Workload.next stream)

let prop_workload_deterministic =
  QCheck.Test.make ~name:"workload stream is a pure function of (params, seed)"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 50))
    (fun (seed, nodes) ->
      let p = Workload.default ~users:1_000 ~seed in
      let a = pull 200 (Workload.create p ~nodes) in
      let b = pull 200 (Workload.create p ~nodes) in
      a = b)

let prop_workload_well_formed =
  QCheck.Test.make ~name:"flows are ordered, sized, and never self-addressed"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 50))
    (fun (seed, nodes) ->
      let p = Workload.default ~users:1_000 ~seed in
      let flows = pull 300 (Workload.create p ~nodes) in
      let ordered =
        List.for_all2
          (fun a b -> Time.compare a.Workload.at b.Workload.at < 0)
          (List.filteri (fun i _ -> i < 299) flows)
          (List.tl flows)
      in
      ordered
      && List.for_all
           (fun f ->
             f.Workload.src_node <> f.Workload.dst_node
             && f.Workload.src_node >= 0
             && f.Workload.src_node < nodes
             && f.Workload.dst_node >= 0
             && f.Workload.dst_node < nodes
             && f.Workload.bytes >= 1
             && f.Workload.wire_bytes > f.Workload.bytes)
           flows)

(* Pareto(scale s, shape a) has E[ln (X/s)] = 1/a, so the MLE tail index
   from a seeded sample must sit near the configured shape. *)
let test_workload_heavy_tail () =
  let shape = 1.5 in
  let p =
    { (Workload.default ~users:100_000 ~seed:11) with
      Workload.pareto_shape = shape }
  in
  let scale = p.Workload.mean_flow_bytes *. (shape -. 1.0) /. shape in
  let stream = Workload.create p ~nodes:20 in
  let n = 20_000 in
  let sum_log = ref 0.0 in
  for _ = 1 to n do
    let f = Workload.next stream in
    sum_log := !sum_log +. log (float_of_int f.Workload.bytes /. scale)
  done;
  let mle = 1.0 /. (!sum_log /. float_of_int n) in
  if Float.abs (mle -. shape) > 0.1 then
    Alcotest.failf "tail index estimate %.3f too far from shape %.1f" mle shape

let test_workload_homes_skewed () =
  let nodes = 20 in
  let p = Workload.default ~users:10_000 ~seed:3 in
  let counts = Array.make nodes 0 in
  for u = 0 to p.Workload.users - 1 do
    let h = Workload.home_node p ~nodes u in
    check Alcotest.bool "home in range" true (h >= 0 && h < nodes);
    check Alcotest.int "home is pure" h (Workload.home_node p ~nodes u);
    counts.(h) <- counts.(h) + 1
  done;
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let top = float_of_int (sorted.(0) + sorted.(1) + sorted.(2)) in
  let uniform_top = 3.0 /. float_of_int nodes *. float_of_int p.Workload.users in
  if top < 1.5 *. uniform_top then
    Alcotest.failf
      "skew 1.0 should concentrate users: top-3 nodes hold %.0f, uniform \
       would be %.0f"
      top uniform_top

(* --- fluid model ---------------------------------------------------------- *)

let make_fluid ?(fidelity = Fluid.Flow) ?(users = 200_000) ~seed () =
  let engine = Engine.create ~seed () in
  let graph = Generate.generate { Generate.kind = Generate.backbone 16; seed } in
  let under =
    Underlay.create ~engine ~rng:(Vini_std.Rng.split (Engine.rng engine)) ~graph
      ()
  in
  let workload = Workload.default ~users ~seed:(seed + 1) in
  let fl =
    Fluid.install ~under { Fluid.fidelity; tick = Fluid.default_tick; workload }
  in
  (engine, under, fl)

let conserved (tot : Fluid.totals) =
  let rhs = tot.Fluid.drained_bytes +. tot.Fluid.dropped_bytes
            +. tot.Fluid.backlog_bytes
  in
  Float.abs (tot.Fluid.offered_bytes -. rhs)
  <= 1e-9 *. Float.max 1.0 tot.Fluid.offered_bytes

let prop_fluid_conserves =
  QCheck.Test.make ~name:"fluid model conserves offered load" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine, _, fl = make_fluid ~seed () in
      Engine.run ~until:(Time.sec 5) engine;
      let tot = Fluid.totals fl in
      Fluid.ticks fl > 0 && tot.Fluid.flows > 0 && conserved tot)

let test_fluid_loss_under_overload () =
  (* 40M users at the default per-user rate offer ~16 Gb/s of background
     load; a 16-PoP backbone's 10G links must saturate, queue, and shed. *)
  let engine, _, fl = make_fluid ~users:40_000_000 ~seed:5 () in
  Engine.run ~until:(Time.sec 5) engine;
  let tot = Fluid.totals fl in
  check Alcotest.bool "conservation holds under overload" true (conserved tot);
  if tot.Fluid.dropped_bytes +. tot.Fluid.backlog_bytes <= 0.0 then
    Alcotest.fail "expected queueing or loss under a 40M-user offered load"

(* Whether the graph stays connected without node [node] (-1 for none)
   and without the links [cut] selects. *)
let connected_without graph ~node ~cut =
  let seen = Array.make (Graph.node_count graph) false in
  let rec visit v =
    if v <> node && not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun (w, l) -> if not (cut l) then visit w) (Graph.neighbors graph v)
    end
  in
  visit (if node = 0 then 1 else 0);
  List.for_all (fun v -> v = node || seen.(v)) (Graph.nodes graph)

(* The fold walks the underlay's forwarding table itself, so a cut link
   sheds its load from the next tick and the reroute carries it.  The
   same seed without the cut is the control: the workload stream does not
   depend on routing, so both runs fold the same flows. *)
let test_fluid_follows_reroute () =
  let seed = 3 in
  let cut_at = Time.ms 2050 and after = Time.ms 2150 in
  let engine, under, fl = make_fluid ~seed () in
  let c_engine, _, c_fl = make_fluid ~seed () in
  Engine.run ~until:cut_at engine;
  Engine.run ~until:cut_at c_engine;
  let graph = Underlay.graph under in
  let offered a b = (Fluid.link_load fl ~a ~b).Fluid.offered_bps in
  (* The busiest directed link whose loss leaves the graph connected. *)
  let survivable (l : Graph.link) =
    connected_without graph ~node:(-1) ~cut:(fun l' -> l' == l)
  in
  let a, b, _ =
    List.fold_left
      (fun ((_, _, best) as acc) (l : Graph.link) ->
        if not (survivable l) then acc
        else
          let pick =
            if offered l.a l.b >= offered l.b l.a then (l.a, l.b) else (l.b, l.a)
          in
          let load = offered (fst pick) (snd pick) in
          if load > best then (fst pick, snd pick, load) else acc)
      (0, 0, 0.0) (Graph.links graph)
  in
  check Alcotest.bool "a loaded survivable link exists" true (offered a b > 0.0);
  Underlay.set_link_state under a b false;
  Engine.run ~until:after engine;
  Engine.run ~until:after c_engine;
  check (Alcotest.float 0.0) "cut link offered a->b" 0.0 (offered a b);
  check (Alcotest.float 0.0) "cut link offered b->a" 0.0 (offered b a);
  let detour =
    match Underlay.next_hop under ~from:a ~dst:b with
    | Some c when c <> b -> c
    | _ -> Alcotest.fail "masking must route a->b around the cut"
  in
  let moved = offered a detour in
  let control = (Fluid.link_load c_fl ~a ~b:detour).Fluid.offered_bps in
  if not (moved > control) then
    Alcotest.failf "detour %d->%d carries %.0f b/s, no more than the uncut %.0f"
      a detour moved control;
  check Alcotest.bool "conserved across the cut" true (conserved (Fluid.totals fl))

(* Cut every link of one node: its flows can reach nothing, so each is
   offered and dropped whole at the edge — no bytes land on any link —
   while everyone else's flows route around it. *)
let test_fluid_partition_drops_at_edge () =
  let seed = 4 in
  let cut_at = Time.ms 2050 and tick_at = Time.ms 2100 in
  let engine, under, fl = make_fluid ~seed () in
  let graph = Underlay.graph under in
  let x =
    List.find
      (fun x ->
        Graph.neighbors graph x <> []
        && connected_without graph ~node:x ~cut:(fun _ -> false))
      (Graph.nodes graph)
  in
  Engine.run ~until:cut_at engine;
  List.iter (fun (v, _) -> Underlay.set_link_state under x v false)
    (Graph.neighbors graph x);
  let before = Fluid.totals fl in
  Engine.run ~until:tick_at engine;
  let after = Fluid.totals fl in
  (* The flows that fold pulled, replayed from an identical stream. *)
  let stream =
    Workload.create (Workload.default ~users:200_000 ~seed:(seed + 1))
      ~nodes:(Graph.node_count graph)
  in
  while Time.compare (Workload.peek_time stream) (Time.ms 2000) <= 0 do
    ignore (Workload.next stream)
  done;
  let isolated = ref 0.0 in
  while Time.compare (Workload.peek_time stream) tick_at <= 0 do
    let f = Workload.next stream in
    if f.Workload.src_node = x || f.Workload.dst_node = x then
      isolated := !isolated +. float_of_int f.Workload.wire_bytes
  done;
  check Alcotest.bool "the node had flows this tick" true (!isolated > 0.0);
  let tick_s = Time.to_sec_f Fluid.default_tick in
  let on_links =
    List.fold_left
      (fun acc (l : Graph.link) ->
        acc
        +. ((Fluid.link_load fl ~a:l.a ~b:l.b).Fluid.offered_bps
           +. (Fluid.link_load fl ~a:l.b ~b:l.a).Fluid.offered_bps)
           *. tick_s /. 8.0)
      0.0 (Graph.links graph)
  in
  List.iter
    (fun (v, _) ->
      check (Alcotest.float 0.0) "nothing offered out of the node" 0.0
        (Fluid.link_load fl ~a:x ~b:v).Fluid.offered_bps;
      check (Alcotest.float 0.0) "nothing offered into the node" 0.0
        (Fluid.link_load fl ~a:v ~b:x).Fluid.offered_bps)
    (Graph.neighbors graph x);
  let at_edge = after.Fluid.offered_bytes -. before.Fluid.offered_bytes -. on_links in
  if Float.abs (at_edge -. !isolated) > 1e-9 *. after.Fluid.offered_bytes then
    Alcotest.failf "edge-dropped %.0f bytes, but the node's flows were %.0f"
      at_edge !isolated;
  if after.Fluid.dropped_bytes -. before.Fluid.dropped_bytes < at_edge *. (1.0 -. 1e-9)
  then Alcotest.fail "edge drops must be counted as dropped";
  check Alcotest.bool "conserved across the partition" true (conserved after)

(* The fold against an oracle that walks each flow hop by hop through
   [Underlay.next_hop], a link-state check and [Graph.find_slot], and
   rebuilds every directed queue's [link_load] record with the drain
   arithmetic and [Float.round].  Across a link cut and a node crash
   (each a reroute), the fold's slot walk must pick the same queues and
   its flat per-queue state must read back as the same records, through
   [link_load] and through [to_json]. *)
let test_fluid_matches_hop_walk () =
  let seed = 6 and users = 40_000_000 in
  let engine, under, fl = make_fluid ~users ~seed () in
  let graph = Underlay.graph under in
  let n = Graph.node_count graph in
  let links = Array.of_list (Graph.links graph) in
  let nq = 2 * Array.length links in
  let queue u v =
    (2 * Graph.slot_link graph (Graph.find_slot graph u v))
    + if u < v then 0 else 1
  in
  let backlog = Array.make nq 0.0 and inflow = Array.make nq 0.0 in
  let want =
    Array.make nq
      { Fluid.util = 0.0; queue_delay = Time.zero; loss = 0.0; offered_bps = 0.0 }
  in
  let stream =
    Workload.create (Workload.default ~users ~seed:(seed + 1)) ~nodes:n
  in
  let path = Array.make (n + 1) 0 in
  let rec walk ~dst hops u =
    if u = dst then hops
    else if hops = n + 1 then -1
    else
      match Underlay.next_hop under ~from:u ~dst with
      | Some v when Underlay.link_is_up under u v ->
          path.(hops) <- queue u v;
          walk ~dst (hops + 1) v
      | _ -> -1
  in
  let tick_s = Time.to_sec_f Fluid.default_tick in
  let fold now =
    while Time.compare (Workload.peek_time stream) now <= 0 do
      let f = Workload.next stream in
      let bytes = float_of_int f.Workload.wire_bytes in
      for i = 0 to walk ~dst:f.Workload.dst_node 0 f.Workload.src_node - 1 do
        inflow.(path.(i)) <- inflow.(path.(i)) +. bytes
      done
    done;
    Array.iteri
      (fun li (l : Graph.link) ->
        let cap = l.Graph.bandwidth_bps /. 8.0 in
        let up = Underlay.link_is_up under l.Graph.a l.Graph.b in
        for d = 0 to 1 do
          let qi = (2 * li) + d in
          let arrived = inflow.(qi) in
          let total = backlog.(qi) +. arrived in
          let drained = if up then Float.min total (cap *. tick_s) else 0.0 in
          let dropped =
            if up then
              Float.max 0.0
                (total -. drained
                -. float_of_int Vini_phys.Calibration.link_queue_bytes)
            else total
          in
          let left = if up then total -. drained -. dropped else 0.0 in
          inflow.(qi) <- 0.0;
          backlog.(qi) <- left;
          want.(qi) <-
            {
              Fluid.util = Float.min 1.0 (drained /. (cap *. tick_s));
              queue_delay = int_of_float (Float.round (left /. cap *. 1e9));
              loss = (if total > 0.0 then Float.min 1.0 (dropped /. total) else 0.0);
              offered_bps = arrived *. 8.0 /. tick_s;
            }
        done)
      links
  in
  let pp_load ppf (r : Fluid.link_load) =
    Format.fprintf ppf "{util %h; delay %d; loss %h; offered %h}" r.Fluid.util
      r.Fluid.queue_delay r.Fluid.loss r.Fluid.offered_bps
  in
  let load = Alcotest.testable pp_load ( = ) in
  let exact = Alcotest.float 0.0 in
  let compare_tick k =
    Array.iter
      (fun (l : Graph.link) ->
        List.iter
          (fun (a, b) ->
            check load
              (Printf.sprintf "tick %d: link_load %d->%d" k a b)
              want.(queue a b) (Fluid.link_load fl ~a ~b))
          [ (l.Graph.a, l.Graph.b); (l.Graph.b, l.Graph.a) ])
      links;
    let rows =
      Option.bind (Json.member "links" (Fluid.to_json fl)) Json.to_list
      |> Option.value ~default:[]
    in
    check Alcotest.int "one to_json row per queue" nq (List.length rows);
    List.iteri
      (fun qi row ->
        let num key =
          match Option.bind (Json.member key row) Json.to_float with
          | Some x -> x
          | None -> Alcotest.failf "to_json row %d has no %s" qi key
        in
        let w = want.(qi) and name key = Printf.sprintf "tick %d: %s of queue %d" k key qi in
        check exact (name "util") w.Fluid.util (num "util");
        check exact (name "queue_delay_ms")
          (Time.to_ms_f w.Fluid.queue_delay) (num "queue_delay_ms");
        check exact (name "loss") w.Fluid.loss (num "loss");
        check exact (name "offered_bps") w.Fluid.offered_bps (num "offered_bps");
        check exact (name "backlog_bytes") backlog.(qi) (num "backlog_bytes"))
      rows
  in
  let busiest () =
    let best = ref (-1, -1, 0.0) in
    Array.iter
      (fun (l : Graph.link) ->
        let survivable =
          connected_without graph ~node:(-1) ~cut:(fun l' -> l' == l)
        in
        List.iter
          (fun (a, b) ->
            let o = (Fluid.link_load fl ~a ~b).Fluid.offered_bps in
            let _, _, top = !best in
            if survivable && o > top then best := (a, b, o))
          [ (l.Graph.a, l.Graph.b); (l.Graph.b, l.Graph.a) ])
      links;
    let a, b, _ = !best in
    (a, b)
  in
  let lossy = ref false and delayed = ref false in
  for k = 1 to 24 do
    let now = Time.mul Fluid.default_tick k in
    Engine.run ~until:now engine;
    fold now;
    check Alcotest.int "one fold per tick" k (Fluid.ticks fl);
    compare_tick k;
    Array.iter
      (fun (r : Fluid.link_load) ->
        if r.Fluid.loss > 0.0 then lossy := true;
        if r.Fluid.queue_delay > 0 then delayed := true)
      want;
    if k = 8 then begin
      let a, b = busiest () in
      Underlay.set_link_state under a b false
    end;
    if k = 16 then begin
      let x =
        List.find
          (fun x -> connected_without graph ~node:x ~cut:(fun _ -> false))
          (List.rev (Graph.nodes graph))
      in
      Underlay.set_node_state under x false
    end
  done;
  check Alcotest.bool "the oracle saw queueing and loss" true
    (!lossy && !delayed)

(* A vini.topo/1 file may list a link's higher id first.  Each to_json
   row must still carry the load of the direction it names. *)
let test_fluid_json_rows_name_their_direction () =
  let link a b =
    Json.Obj
      [
        ("a", Json.Num (float_of_int a));
        ("b", Json.Num (float_of_int b));
        ("bandwidth_bps", Json.Num 1e9);
        ("delay_ns", Json.Num 1e6);
        ("loss", Json.Num 0.0);
        ("weight", Json.Num 1.0);
      ]
  in
  let graph =
    match
      Generate.of_json
        (Json.Obj
           [
             ("schema", Json.Str Generate.schema_version);
             ("nodes", Json.Arr [ Json.Str "n0"; Json.Str "n1"; Json.Str "n2" ]);
             ("links", Json.Arr [ link 1 0; link 1 2 ]);
           ])
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "of_json: %s" e
  in
  let engine = Engine.create ~seed:7 () in
  let under =
    Underlay.create ~engine ~rng:(Vini_std.Rng.split (Engine.rng engine)) ~graph
      ()
  in
  let workload = Workload.default ~users:200_000 ~seed:8 in
  let fl =
    Fluid.install ~under
      { Fluid.fidelity = Fluid.Flow; tick = Fluid.default_tick; workload }
  in
  Engine.run ~until:(Time.sec 3) engine;
  let offered a b = (Fluid.link_load fl ~a ~b).Fluid.offered_bps in
  if offered 1 0 = offered 0 1 then
    Alcotest.fail "the two directions of link (1, 0) carry the same load";
  let row from to_ =
    let rows =
      Option.bind (Json.member "links" (Fluid.to_json fl)) Json.to_list
      |> Option.value ~default:[]
    in
    let str key r = Option.bind (Json.member key r) Json.to_str in
    match
      List.find_opt (fun r -> str "from" r = Some from && str "to" r = Some to_) rows
    with
    | Some r -> Option.get (Option.bind (Json.member "offered_bps" r) Json.to_float)
    | None -> Alcotest.failf "no to_json row %s -> %s" from to_
  in
  check (Alcotest.float 0.0) "row n1 -> n0" (offered 1 0) (row "n1" "n0");
  check (Alcotest.float 0.0) "row n0 -> n1" (offered 0 1) (row "n0" "n1")

(* Fluid loss reaching packets: under the 40M-user overload the fluid
   queues shed, and hybrid fidelity pushes that loss into the packet path
   of a UDP stream crossing a shedding link. *)
let test_hybrid_loss_reaches_packets () =
  let engine, under, fl =
    make_fluid ~fidelity:Fluid.Hybrid ~users:40_000_000 ~seed:5 ()
  in
  Engine.run ~until:(Time.sec 2) engine;
  let graph = Underlay.graph under in
  let shedding =
    List.concat_map
      (fun (l : Graph.link) -> [ (l.a, l.b); (l.b, l.a) ])
      (Graph.links graph)
    |> List.filter (fun (a, b) ->
           (Fluid.link_load fl ~a ~b).Fluid.loss > 0.0
           && Underlay.next_hop under ~from:a ~dst:b = Some b)
  in
  let a, b =
    match shedding with
    | p :: _ -> p
    | [] -> Alcotest.fail "expected a shedding link under a 40M-user load"
  in
  let src = Underlay.node under a and dst = Underlay.node under b in
  let got = ref 0 and sent = 500 in
  Vini_phys.Ipstack.bind_udp (Vini_phys.Pnode.stack dst) ~port:7000 (fun _ ->
      incr got);
  for i = 1 to sent do
    ignore
      (Engine.at engine
         (Time.add (Time.sec 2) (Time.ms (2 * i)))
         (fun () ->
           Vini_phys.Pnode.send src
             (Vini_net.Packet.udp ~src:(Vini_phys.Pnode.addr src)
                ~dst:(Vini_phys.Pnode.addr dst) ~sport:7000 ~dport:7000
                (Vini_net.Packet.Bytes_ 200))))
  done;
  Engine.run ~until:(Time.sec 4) engine;
  let stats =
    Vini_phys.Plink.stats (Underlay.plink under a b) ~dir:(if a < b then 0 else 1)
  in
  if stats.Vini_phys.Plink.bg_drops = 0 then
    Alcotest.fail "the fluid's loss pressure dropped no packet";
  if !got >= sent then
    Alcotest.failf "all %d datagrams arrived across a shedding link" sent

(* --- spec language and Vini.start integration ---------------------------- *)

let scenario_spec =
  {|experiment scenario-it
slice reserved 0.25 rt
topology generate backbone 24 seed 9
workload users 500000 seed 3 rate 0.002 bytes 40000 shape 1.5 skew 1
fidelity hybrid tick 100ms
node a
node b
node c
link a b bw 1g delay 5ms weight 500
link b c bw 1g delay 5ms weight 500
routing ospf hello 5 dead 10
|}

let test_spec_verbs_parse () =
  let p =
    match Spec_lang.parse scenario_spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let g =
    match Spec_lang.substrate_graph p with
    | Ok (Some g) -> g
    | Ok None -> Alcotest.fail "spec declares a substrate"
    | Error e -> Alcotest.failf "substrate: %s" e
  in
  check Alcotest.string "substrate label" "backbone-24-s9" (Graph.label g);
  check Alcotest.int "substrate size" 24 (Graph.node_count g);
  (match Spec_lang.workload p with
  | None -> Alcotest.fail "spec declares a workload"
  | Some w ->
      check Alcotest.int "users" 500_000 w.Workload.users;
      check Alcotest.int "workload seed" 3 w.Workload.seed);
  match Spec_lang.fidelity p with
  | Some (Fluid.Hybrid, tick) ->
      check Alcotest.int "tick ms" 100 (int_of_float (Time.to_ms_f tick))
  | _ -> Alcotest.fail "expected hybrid fidelity, tick 100ms"

let test_spec_fidelity_requires_workload () =
  let text =
    {|experiment bad
slice fair
fidelity hybrid
node a
node b
link a b bw 1g delay 1ms weight 1
routing static
|}
  in
  let p =
    match Spec_lang.parse text with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match Spec_lang.to_spec p ~phys:(Vini_rcc.Rcc.abilene ()) with
  | Ok _ -> Alcotest.fail "fidelity without workload must not elaborate"
  | Error e ->
      check Alcotest.bool "error mentions the workload" true
        (mentions ~frag:"workload" e)

let deploy_scenario ~seed text =
  let p =
    match Spec_lang.parse text with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let phys =
    match Spec_lang.substrate_graph p with
    | Ok (Some g) -> g
    | _ -> Alcotest.fail "substrate expected"
  in
  let spec =
    match Spec_lang.to_spec p ~phys with
    | Ok s -> s
    | Error e -> Alcotest.failf "to_spec: %s" e
  in
  let engine = Engine.create ~seed () in
  let vini = Vini.create ~engine ~graph:phys () in
  (p, phys, vini, Vini.deploy vini spec)

let test_hybrid_installs_on_start () =
  let _, _, vini, inst = deploy_scenario ~seed:2 scenario_spec in
  check Alcotest.bool "no fluid before start" true (Vini.fluid inst = None);
  Vini.start inst;
  let fl =
    match Vini.fluid inst with
    | Some fl -> fl
    | None -> Alcotest.fail "hybrid fidelity must install the fluid model"
  in
  Vini.run ~until:(Time.sec 3) vini;
  check Alcotest.bool "ticks advanced" true (Fluid.ticks fl > 0);
  check Alcotest.bool "conserved" true (conserved (Fluid.totals fl))

(* A run is a function of its seed: two runs of one seed in one process,
   through a mid-run machine crash and reboot, write the same scenario
   document byte for byte — so no state leaks from one run into the
   next — and the next seed writes another. *)
let scenario_document ~seed =
  let text =
    scenario_spec ^ "ingress a pool 10.8.0.0/24\negress c\n"
    ^ "at 2 crash-node b\nat 4 restore-node b\n"
  in
  let p, phys, vini, inst = deploy_scenario ~seed text in
  Vini.start inst;
  Vini.run ~until:(Time.sec 6) vini;
  Vini_measure.Export.to_string
    (Vini_measure.Export.scenario_document ?fluid:(Vini.fluid inst)
       ~under:(Vini.underlay vini) ~substrate:phys
       ~workload:(Option.get (Spec_lang.workload p))
       ())

let test_scenario_document_is_seeded () =
  let first = scenario_document ~seed:1 in
  check Alcotest.string "same seed, same document" first
    (scenario_document ~seed:1);
  check Alcotest.bool "next seed, another document" false
    (String.equal first (scenario_document ~seed:2))

let test_openvpn_wire_bytes () =
  let module O = Vini_overlay.Openvpn in
  check Alcotest.int "empty payload" 0 (O.wire_bytes ~payload:0);
  let one = O.wire_bytes ~payload:100 in
  check Alcotest.bool "one packet adds one encapsulation" true (one > 100);
  let mss = 1500 - 41 - 20 in
  check Alcotest.bool "crossing the MTU adds a second header" true
    (O.wire_bytes ~payload:(mss + 1) - O.wire_bytes ~payload:mss > 1)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_document_deterministic;
    QCheck_alcotest.to_alcotest prop_generated_connected;
    QCheck_alcotest.to_alcotest prop_delay_weight_monotone;
    Alcotest.test_case "vini.topo/1 round-trips" `Quick test_topo_roundtrip;
    Alcotest.test_case "vini.topo/1 rejects a negative weight" `Quick
      (rejects_link ~what:"weight" (one_link_doc ~weight:(-3) ()));
    Alcotest.test_case "vini.topo/1 rejects a non-positive bandwidth" `Quick
      (rejects_link ~what:"bandwidth_bps" (one_link_doc ~bandwidth_bps:0.0 ()));
    Alcotest.test_case "vini.topo/1 rejects loss outside [0, 1]" `Quick
      (rejects_link ~what:"loss" (one_link_doc ~loss:1.5 ()));
    Alcotest.test_case "vini.topo/1 rejects wrong schemas" `Quick
      test_topo_rejects_wrong_schema;
    QCheck_alcotest.to_alcotest prop_workload_deterministic;
    QCheck_alcotest.to_alcotest prop_workload_well_formed;
    Alcotest.test_case "flow sizes are Pareto with the configured tail" `Quick
      test_workload_heavy_tail;
    Alcotest.test_case "popularity skew concentrates users" `Quick
      test_workload_homes_skewed;
    QCheck_alcotest.to_alcotest prop_fluid_conserves;
    Alcotest.test_case "overload queues and sheds, conserving bytes" `Quick
      test_fluid_loss_under_overload;
    Alcotest.test_case "fluid load follows a reroute" `Quick
      test_fluid_follows_reroute;
    Alcotest.test_case "a partitioned node's flows drop at the edge" `Quick
      test_fluid_partition_drops_at_edge;
    Alcotest.test_case "fluid queues and loads match a hop-by-hop walk" `Quick
      test_fluid_matches_hop_walk;
    Alcotest.test_case "fluid to_json rows name their direction" `Quick
      test_fluid_json_rows_name_their_direction;
    Alcotest.test_case "hybrid fluid loss reaches packets" `Quick
      test_hybrid_loss_reaches_packets;
    Alcotest.test_case "spec verbs parse and resolve" `Quick
      test_spec_verbs_parse;
    Alcotest.test_case "fidelity without workload is rejected" `Quick
      test_spec_fidelity_requires_workload;
    Alcotest.test_case "Vini.start installs hybrid fluid model" `Quick
      test_hybrid_installs_on_start;
    Alcotest.test_case "scenario document is a function of the seed" `Quick
      test_scenario_document_is_seeded;
    Alcotest.test_case "openvpn wire cost models encapsulation" `Quick
      test_openvpn_wire_bytes;
  ]
