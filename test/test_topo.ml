(* Tests for topologies and shortest paths. *)

module Time = Vini_sim.Time
module Graph = Vini_topo.Graph
module Datasets = Vini_topo.Datasets

let check = Alcotest.check

let link ?(bw = 1e9) ?(delay = Time.ms 1) ?(w = 1) a b =
  { Graph.a; b; bandwidth_bps = bw; delay; loss = 0.0; weight = w }

let square () =
  Graph.create
    ~names:[| "a"; "b"; "c"; "d" |]
    ~links:[ link ~w:1 0 1; link ~w:1 1 2; link ~w:5 0 3; link ~w:5 3 2 ]

let test_create_validation () =
  let bad ~msg links =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Graph.create ~names:[| "a"; "b" |] ~links))
  in
  bad ~msg:"Graph.create: endpoint out of range" [ link 0 5 ];
  bad ~msg:"Graph.create: self-loop" [ link 1 1 ];
  bad ~msg:"Graph.create: duplicate link" [ link 0 1; link 1 0 ];
  bad ~msg:"Graph.create: link a-b: negative weight -1" [ link ~w:(-1) 0 1 ];
  bad ~msg:"Graph.create: link b-a: bandwidth_bps 0 is not positive"
    [ link ~bw:0.0 1 0 ];
  bad ~msg:"Graph.create: link a-b: loss -0.5 is outside [0, 1]"
    [ { (link 0 1) with loss = -0.5 } ]

let test_accessors () =
  let g = square () in
  check Alcotest.int "nodes" 4 (Graph.node_count g);
  check Alcotest.int "links" 4 (Graph.link_count g);
  check Alcotest.string "name" "c" (Graph.name g 2);
  check Alcotest.int "id_of_name" 2 (Graph.id_of_name g "c");
  Alcotest.check_raises "unknown name"
    (Graph.Unknown_node { topo = "topology"; node = "zz" }) (fun () ->
      ignore (Graph.id_of_name g "zz"));
  check Alcotest.(option int) "id_of_name_opt hit" (Some 2)
    (Graph.id_of_name_opt g "c");
  check Alcotest.(option int) "id_of_name_opt miss" None
    (Graph.id_of_name_opt g "zz");
  check Alcotest.string "relabel" "sq"
    (Graph.label (Graph.relabel "sq" g));
  check Alcotest.int "degree of a" 2 (List.length (Graph.neighbors g 0));
  check Alcotest.bool "adjacent" true (Graph.find_link g 0 1 <> None);
  check Alcotest.bool "either order" true (Graph.find_link g 1 0 <> None);
  check Alcotest.bool "not adjacent" true (Graph.find_link g 0 2 = None)

let test_other_end () =
  let l = link 3 7 in
  check Alcotest.int "b side" 7 (Graph.other_end l 3);
  check Alcotest.int "a side" 3 (Graph.other_end l 7);
  Alcotest.check_raises "non-member" (Invalid_argument "Graph.other_end: node not an endpoint")
    (fun () -> ignore (Graph.other_end l 1))

let test_connectivity () =
  check Alcotest.bool "square connected" true (Graph.is_connected (square ()));
  let disconnected =
    Graph.create ~names:[| "a"; "b"; "c" |] ~links:[ link 0 1 ]
  in
  check Alcotest.bool "detects disconnect" false (Graph.is_connected disconnected)

let test_shortest_path_picks_cheap () =
  let g = square () in
  check
    Alcotest.(option (list int))
    "cheap path" (Some [ 0; 1; 2 ])
    (Graph.shortest_path g 0 2);
  (* With the cheap edge made expensive, reroute via d. *)
  let weight_of (l : Graph.link) =
    if (l.a, l.b) = (0, 1) || (l.a, l.b) = (1, 0) then 100 else l.Graph.weight
  in
  check
    Alcotest.(option (list int))
    "detour" (Some [ 0; 3; 2 ])
    (Graph.shortest_path ~weight_of g 0 2)

let test_path_metrics () =
  let g = square () in
  check Alcotest.int "weight" 2 (Graph.path_weight g [ 0; 1; 2 ]);
  check Alcotest.bool "delay" true
    (Time.compare (Graph.path_delay g [ 0; 1; 2 ]) (Time.ms 2) = 0);
  Alcotest.check_raises "bad path" (Invalid_argument "Graph: path nodes not adjacent")
    (fun () -> ignore (Graph.path_weight g [ 0; 2 ]))

let test_unreachable () =
  let g = Graph.create ~names:[| "a"; "b"; "c" |] ~links:[ link 0 1 ] in
  check Alcotest.(option (list int)) "no path" None (Graph.shortest_path g 0 2);
  let dist, _ = Graph.dijkstra g 0 in
  check Alcotest.int "infinite distance" max_int dist.(2)

(* Property: Dijkstra distances equal Bellman-Ford distances on random
   connected Waxman graphs. *)
let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:60
    QCheck.(pair (int_range 2 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Vini_std.Rng.create seed in
      let g = Datasets.waxman ~rng ~n () in
      let src = seed mod n in
      let d1, _ = Graph.dijkstra g src in
      let d2 = Graph.bellman_ford g src in
      d1 = d2)

(* An oracle for Dijkstra's whole tree that shares none of its code:
   Bellman-Ford distances, and as [v]'s parent the smallest neighbour [u]
   with [dist u + w = dist v] ([None] for [src] and unreachable nodes).
   [Graph.neighbors] is sorted by id, so the first match is the
   smallest. *)
let oracle_spf ?(weight_of = fun (l : Graph.link) -> l.weight) g src =
  let dist = Graph.bellman_ford ~weight_of g src in
  let parent v =
    if v = src || dist.(v) = max_int then None
    else
      List.find_map
        (fun (u, l) ->
          if dist.(u) < max_int && dist.(u) + weight_of l = dist.(v) then
            Some u
          else None)
        (Graph.neighbors g v)
  in
  (dist, Array.init (Graph.node_count g) parent)

(* A connected graph with weights in {1, 2}: a random spanning tree plus
   about [n] more links, so equal-cost paths, and parent ties, abound. *)
let tie_dense_graph ~n ~seed =
  let st = Random.State.make [| seed |] in
  let seen = Hashtbl.create 16 in
  let links = ref [] in
  let add a b =
    if a <> b && not (Hashtbl.mem seen (min a b, max a b)) then begin
      Hashtbl.add seen (min a b, max a b) ();
      links := link ~w:(1 + Random.State.int st 2) a b :: !links
    end
  in
  for v = 1 to n - 1 do
    add (Random.State.int st v) v
  done;
  for _ = 1 to n do
    add (Random.State.int st n) (Random.State.int st n)
  done;
  Graph.create ~names:(Array.init n string_of_int) ~links:(List.rev !links)

(* Both entry points against the oracle, from every source; the
   allocation-free one reuses one scratch and one dist/prev pair
   throughout, as the underlay does. *)
let prop_dijkstra_vs_oracle =
  QCheck.Test.make ~name:"dijkstra tree = oracle on tie-dense graphs" ~count:100
    QCheck.(pair (int_range 2 30) (int_bound 10_000))
    (fun (n, seed) ->
      let g = tie_dense_graph ~n ~seed in
      let weights =
        Array.init (Graph.slot_count g) (fun s ->
            (List.nth (Graph.links g) (Graph.slot_link g s)).weight)
      in
      let scratch = Graph.scratch g in
      let dist = Array.make n 0 and prev = Array.make n 0 in
      List.for_all
        (fun src ->
          let want_dist, want_prev = oracle_spf g src in
          Graph.dijkstra_into g scratch ~weights ~dist ~prev src;
          Graph.dijkstra g src = (want_dist, want_prev)
          && dist = want_dist
          && Array.map (fun p -> if p < 0 then None else Some p) prev = want_prev)
        (Graph.nodes g))

let prop_waxman_connected =
  QCheck.Test.make ~name:"waxman graphs are connected" ~count:60
    QCheck.(pair (int_range 1 40) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Vini_std.Rng.create seed in
      Graph.is_connected (Datasets.waxman ~rng ~n ()))

(* The Abilene dataset must encode the paper's routes. *)
let test_abilene_paths () =
  let g = Datasets.Abilene.topology () in
  check Alcotest.int "11 PoPs" 11 (Graph.node_count g);
  check Alcotest.int "14 links" 14 (Graph.link_count g);
  let dc = Datasets.Abilene.washington and sea = Datasets.Abilene.seattle in
  let path = Option.get (Graph.shortest_path g dc sea) in
  let names = List.map (Graph.name g) path in
  check
    Alcotest.(list string)
    "primary route (Fig 7)"
    [ "Washington DC"; "New York"; "Chicago"; "Indianapolis"; "Kansas City";
      "Denver"; "Seattle" ]
    names;
  (* One-way propagation along the primary path: 38 ms -> RTT 76 ms. *)
  check (Alcotest.float 0.01) "one-way delay 38 ms" 38.0
    (Time.to_ms_f (Graph.path_delay g path));
  (* Without Denver-KC, the south route of Figure 7. *)
  let weight_of (l : Graph.link) =
    let d = Datasets.Abilene.denver and k = Datasets.Abilene.kansas_city in
    if (l.a = d && l.b = k) || (l.a = k && l.b = d) then 1_000_000
    else l.Graph.weight
  in
  let backup = Option.get (Graph.shortest_path ~weight_of g dc sea) in
  check
    Alcotest.(list string)
    "backup route (Fig 7)"
    [ "Washington DC"; "Atlanta"; "Houston"; "Los Angeles"; "Sunnyvale";
      "Seattle" ]
    (List.map (Graph.name g) backup);
  check (Alcotest.float 0.01) "backup one-way 46.5 ms" 46.5
    (Time.to_ms_f (Graph.path_delay g backup))

let test_deter_dataset () =
  let g = Datasets.Deter.topology () in
  check Alcotest.int "3 machines" 3 (Graph.node_count g);
  List.iter
    (fun (l : Graph.link) ->
      check (Alcotest.float 1.0) "gigabit" 1e9 l.Graph.bandwidth_bps)
    (Graph.links g)

let test_planetlab_dataset () =
  let g = Datasets.Planetlab3.topology () in
  check Alcotest.int "3 nodes" 3 (Graph.node_count g);
  (* Chicago->DC one-way must give the 24.2-24.4 ms ping floor. *)
  let d =
    Graph.path_delay g
      [ Datasets.Planetlab3.chicago; Datasets.Planetlab3.new_york;
        Datasets.Planetlab3.washington ]
  in
  check Alcotest.bool "one-way ~12.1ms" true
    (Time.to_ms_f d > 11.9 && Time.to_ms_f d < 12.3)

let test_nlr_dataset () =
  let g = Datasets.Nlr.topology () in
  check Alcotest.int "10 PoPs" 10 (Graph.node_count g);
  check Alcotest.bool "connected" true (Graph.is_connected g);
  (* A national ring: Seattle reaches Jacksonville both ways. *)
  check Alcotest.bool "cross-country path exists" true
    (Graph.shortest_path g Datasets.Nlr.seattle Datasets.Nlr.jacksonville
    <> None)

let test_generators () =
  let r = Datasets.ring ~n:6 () in
  check Alcotest.int "ring links" 6 (Graph.link_count r);
  check Alcotest.int "ring degree" 2 (List.length (Graph.neighbors r 0));
  check Alcotest.bool "ring connected" true (Graph.is_connected r);
  let s = Datasets.star ~leaves:5 () in
  check Alcotest.int "star links" 5 (Graph.link_count s);
  check Alcotest.int "hub degree" 5 (List.length (Graph.neighbors s 0));
  check Alcotest.int "leaf degree" 1 (List.length (Graph.neighbors s 3));
  let g = Datasets.grid ~rows:3 ~cols:4 () in
  check Alcotest.int "grid nodes" 12 (Graph.node_count g);
  check Alcotest.int "grid links" ((2 * 4) + (3 * 3)) (Graph.link_count g);
  check Alcotest.bool "grid connected" true (Graph.is_connected g);
  (* Corner-to-corner manhattan distance: (3-1)+(4-1) hops. *)
  check Alcotest.(option int) "grid path length" (Some 5)
    (Option.map
       (fun p -> List.length p - 1)
       (Graph.shortest_path g 0 11));
  Alcotest.check_raises "tiny ring" (Invalid_argument "Datasets.ring: need at least 3 nodes")
    (fun () -> ignore (Datasets.ring ~n:2 ()))

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "other_end" `Quick test_other_end;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "shortest path weighting" `Quick test_shortest_path_picks_cheap;
    Alcotest.test_case "path metrics" `Quick test_path_metrics;
    Alcotest.test_case "unreachable nodes" `Quick test_unreachable;
    QCheck_alcotest.to_alcotest prop_dijkstra_vs_bellman_ford;
    QCheck_alcotest.to_alcotest prop_dijkstra_vs_oracle;
    QCheck_alcotest.to_alcotest prop_waxman_connected;
    Alcotest.test_case "abilene mirrors Figure 7" `Quick test_abilene_paths;
    Alcotest.test_case "deter dataset" `Quick test_deter_dataset;
    Alcotest.test_case "planetlab dataset" `Quick test_planetlab_dataset;
    Alcotest.test_case "nlr dataset" `Quick test_nlr_dataset;
    Alcotest.test_case "ring/star/grid generators" `Quick test_generators;
  ]
