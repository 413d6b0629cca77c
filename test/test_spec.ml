(* Tests for the textual experiment-specification language (§6.2). *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Spec_lang = Vini_core.Spec_lang
module Experiment = Vini_core.Experiment
module Vini = Vini_core.Vini
module Iias = Vini_overlay.Iias

let check = Alcotest.check

let link a b =
  { Graph.a; b; bandwidth_bps = 1e9; delay = Time.ms 1; loss = 0.0; weight = 1 }

let phys () =
  Graph.relabel "five-ring"
  @@ Graph.create
       ~names:[| "pop0"; "pop1"; "pop2"; "pop3"; "pop4" |]
       ~links:[ link 0 1; link 1 2; link 2 3; link 3 4; link 4 0 ]

let parse_ok text =
  match Spec_lang.parse text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_example_parses_and_elaborates () =
  let p = parse_ok Spec_lang.example in
  check Alcotest.string "name" "ring-demo" (Spec_lang.name p);
  let g = Spec_lang.vtopo p in
  check Alcotest.int "nodes" 4 (Graph.node_count g);
  check Alcotest.int "links" 4 (Graph.link_count g);
  match Spec_lang.to_spec p ~phys:(phys ()) with
  | Ok spec ->
      check Alcotest.int "events elaborated" 5
        (List.length spec.Experiment.events);
      check Alcotest.bool "validates" true (Experiment.validate spec = Ok ())
  | Error e -> Alcotest.failf "to_spec failed: %s" e

let test_units () =
  let p =
    parse_ok
      {|experiment units
node a
node b
link a b bw 2.5m delay 250us weight 7 loss 0.25
|}
  in
  let g = Spec_lang.vtopo p in
  let l = List.hd (Graph.links g) in
  check (Alcotest.float 1.0) "bw" 2.5e6 l.Graph.bandwidth_bps;
  check (Alcotest.float 0.001) "delay" 0.25 (Time.to_ms_f l.Graph.delay);
  check Alcotest.int "weight" 7 l.Graph.weight;
  check (Alcotest.float 1e-9) "loss" 0.25 l.Graph.loss

let test_slice_forms () =
  let slice_of text =
    (Spec_lang.slice (parse_ok ("experiment s\nnode a\n" ^ text)))
  in
  let s = slice_of "slice fair" in
  check (Alcotest.float 0.0) "fair: no reservation" 0.0 s.Vini_phys.Slice.reservation;
  check Alcotest.bool "fair: no rt" false s.Vini_phys.Slice.realtime;
  let s = slice_of "slice reserved 0.4 rt" in
  check (Alcotest.float 1e-9) "reserved" 0.4 s.Vini_phys.Slice.reservation;
  check Alcotest.bool "rt" true s.Vini_phys.Slice.realtime;
  let s = slice_of "slice plvini" in
  check (Alcotest.float 1e-9) "plvini reservation" 0.25 s.Vini_phys.Slice.reservation

let expect_parse_error text frag =
  match Spec_lang.parse text with
  | Ok _ -> Alcotest.failf "expected failure (%s)" frag
  | Error e ->
      let has =
        let n = String.length frag in
        let rec go i =
          i + n <= String.length e && (String.sub e i n = frag || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool (Printf.sprintf "error mentions %S (got %S)" frag e)
        true has

let test_parse_errors () =
  expect_parse_error "node a\n" "missing experiment";
  expect_parse_error "experiment x\n" "no nodes";
  expect_parse_error "experiment x\nnode a\nnode a\n" "duplicate node";
  expect_parse_error "experiment x\nnode a\nlink a b\n" "unknown node";
  expect_parse_error "experiment x\nnode a\nnode b\nlink a b\nlink b a\n"
    "duplicate link";
  expect_parse_error "experiment x\nnode a\nnode b\nlink a b bw -3\n"
    "bad bandwidth";
  expect_parse_error "experiment x\nnode a\nat 5 explode a\n" "unknown event";
  expect_parse_error "experiment x\nnode a\nnode b\nat -1 fail-link a b\n"
    "before t=0";
  expect_parse_error
    "experiment x\nnode a\nnode b\nrouting ospf hello 10 dead 5\n"
    "hello < dead";
  expect_parse_error "experiment x\nnode a\nfrobnicate\n" "unknown directive"

let test_embedding_resolution () =
  (* Explicit embed + same-name + free-index fallback. *)
  let text =
    {|experiment embed-test
node pop2
node x
node y
link pop2 x
link x y
embed y on pop4
|}
  in
  let p = parse_ok text in
  match Spec_lang.to_spec p ~phys:(phys ()) with
  | Error e -> Alcotest.failf "to_spec: %s" e
  | Ok spec -> (
      (* Embed lines are pins on an Auto placement now; solving it against
         the bare substrate shows the resolution: pop2 matches by name -> 2,
         y pinned to pop4 -> 4, x is placed by the solver (all residuals
         equal, ties break to the lowest id) -> 0. *)
      let req =
        match spec.Experiment.placement with
        | Experiment.Auto r -> r
        | Experiment.Pinned _ -> Alcotest.fail "expected an Auto placement"
      in
      let sub = Vini_embed.Substrate.of_graph (phys ()) in
      match Vini_embed.Embed.solve sub ~vtopo:spec.Experiment.vtopo req with
      | Error r ->
          Alcotest.failf "solve: %s" (Vini_embed.Embed.rejection_to_string r)
      | Ok m ->
          check Alcotest.int "same-name" 2 m.Vini_embed.Embed.nodes.(0);
          check Alcotest.int "free index" 0 m.Vini_embed.Embed.nodes.(1);
          check Alcotest.int "explicit" 4 m.Vini_embed.Embed.nodes.(2))

let test_duplicate_embed_rejected () =
  (* Satellite regression: a second embed line for the same virtual node
     (or the same physical target) is a parse error, not a silent
     last-one-wins. *)
  expect_parse_error
    "experiment x\nnode a\nnode b\nlink a b\nembed a on pop0\nembed a on \
     pop1\n"
    "duplicate embed for \"a\"";
  expect_parse_error
    "experiment x\nnode a\nnode b\nlink a b\nembed a on pop0\nembed b on \
     pop0\n"
    "duplicate embed target \"pop0\""

let test_embedding_errors () =
  let p =
    parse_ok
      "experiment e\nnode a\nnode b\nlink a b\nembed a on nowhere\n"
  in
  (match Spec_lang.to_spec p ~phys:(phys ()) with
  | Error e ->
      (* Satellite regression: the error must name the missing node AND
         which substrate was searched — never a bare Not_found. *)
      let mentions frag =
        let n = String.length frag in
        let rec go i =
          i + n <= String.length e && (String.sub e i n = frag || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool
        (Printf.sprintf "error names the node (got %S)" e)
        true (mentions "nowhere");
      check Alcotest.bool
        (Printf.sprintf "error names the substrate (got %S)" e)
        true (mentions "five-ring")
  | Ok _ -> Alcotest.fail "expected unknown physical node error");
  (* More virtual nodes than physical nodes. *)
  let big =
    "experiment big\n"
    ^ String.concat "\n" (List.init 6 (Printf.sprintf "node n%d"))
    ^ "\n"
    ^ String.concat "\n"
        (List.init 5 (fun i -> Printf.sprintf "link n%d n%d" i (i + 1)))
    ^ "\n"
  in
  match Spec_lang.to_spec (parse_ok big) ~phys:(phys ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected substrate-too-small error"

let test_spec_runs_end_to_end () =
  (* Load the example spec, deploy it, and check the timeline acts. *)
  let engine = Engine.create ~seed:99 () in
  let vini = Vini.create ~engine ~graph:(phys ()) () in
  let spec =
    match Spec_lang.load Spec_lang.example ~phys:(phys ()) with
    | Ok s -> s
    | Error e -> Alcotest.failf "load: %s" e
  in
  let inst = Vini.deploy vini spec in
  Vini.start inst;
  let iias = Vini.iias inst in
  Engine.run ~until:(Time.sec 5) engine;
  check Alcotest.bool "link up early" true (Iias.vlink_is_up iias 0 1);
  Engine.run ~until:(Time.sec 15) engine;
  check Alcotest.bool "failed at 10" false (Iias.vlink_is_up iias 0 1);
  Engine.run ~until:(Time.sec 25) engine;
  check Alcotest.int "cost changed at 20" 4000 (Iias.vlink_cost iias 2 3);
  Engine.run ~until:(Time.sec 36) engine;
  check Alcotest.bool "restored at 34" true (Iias.vlink_is_up iias 0 1)

(* The five chaos verbs: parse -> elaborate round-trip onto the typed
   actions, plus the bad-value rejections. *)
let test_chaos_verbs_roundtrip () =
  let text =
    {|experiment chaos-verbs
node a
node b
node c
link a b
link b c
at 5 crash-node b
at 12 restore-node b
at 20 kill-process c
at 25 flap-link a b 3.5
at 30 corrupt-link b c 0.02
at 40 corrupt-link b c 0
|}
  in
  match Spec_lang.to_spec (parse_ok text) ~phys:(phys ()) with
  | Error e -> Alcotest.failf "to_spec: %s" e
  | Ok spec ->
      check Alcotest.bool "chaos timeline validates" true
        (Experiment.validate spec = Ok ());
      let rendered =
        List.map
          (fun ev ->
            Printf.sprintf "%g %s"
              (Time.to_sec_f ev.Experiment.at)
              (Experiment.action_to_string ev.Experiment.action))
          spec.Experiment.events
      in
      check
        (Alcotest.list Alcotest.string)
        "elaborated actions"
        [
          "5 crash-node 1";
          "12 restore-node 1";
          "20 kill-process 2";
          "25 flap-link 0 1 3.5";
          "30 corrupt-link 1 2 0.02";
          "40 corrupt-link 1 2 0";
        ]
        rendered

let test_chaos_verb_errors () =
  let expect_elab_error text frag =
    let full = "experiment bad\nnode a\nnode b\nlink a b\n" ^ text ^ "\n" in
    match Spec_lang.to_spec (parse_ok full) ~phys:(phys ()) with
    | Ok _ -> Alcotest.failf "expected elaboration failure (%s)" frag
    | Error e ->
        let has =
          let n = String.length frag in
          let rec go i =
            i + n <= String.length e && (String.sub e i n = frag || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool
          (Printf.sprintf "error mentions %S (got %S)" frag e)
          true has
  in
  expect_elab_error "at 5 flap-link a b 0" "bad flap downtime";
  expect_elab_error "at 5 flap-link a b -2" "bad flap downtime";
  expect_elab_error "at 5 corrupt-link a b 1.5" "bad corruption probability";
  expect_elab_error "at 5 corrupt-link a b x" "bad corruption probability";
  expect_elab_error "at 5 crash-node z" "unknown node";
  (* Arity is already a parse error, like any other verb. *)
  expect_parse_error "experiment x\nnode a\nnode b\nat 5 flap-link a b\n"
    "expects 3"

(* Property: rendering a random topology as spec text and parsing it back
   reproduces the graph (nodes, links, weights, delays). *)
let prop_spec_topology_roundtrip =
  QCheck.Test.make ~name:"spec text round-trips random topologies" ~count:60
    QCheck.(pair (int_range 2 12) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Vini_topo.Datasets.waxman ~rng:(Vini_std.Rng.create seed) ~n () in
      let buf = Buffer.create 512 in
      Buffer.add_string buf "experiment roundtrip\n";
      List.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "node %s\n" (Graph.name g v)))
        (Graph.nodes g);
      List.iter
        (fun (l : Graph.link) ->
          Buffer.add_string buf
            (Printf.sprintf "link %s %s bw %.0f delay %dus weight %d\n"
               (Graph.name g l.Graph.a) (Graph.name g l.Graph.b)
               l.Graph.bandwidth_bps
               (l.Graph.delay / 1000)
               l.Graph.weight))
        (Graph.links g);
      match Spec_lang.parse (Buffer.contents buf) with
      | Error _ -> false
      | Ok parsed ->
          let g2 = Spec_lang.vtopo parsed in
          Graph.node_count g = Graph.node_count g2
          && Graph.link_count g = Graph.link_count g2
          && List.for_all2
               (fun (l1 : Graph.link) (l2 : Graph.link) ->
                 let us t = (t : Vini_sim.Time.t) / 1000 in
                 l1.Graph.a = l2.Graph.a && l1.Graph.b = l2.Graph.b
                 && l1.Graph.weight = l2.Graph.weight
                 && us l1.Graph.delay = us l2.Graph.delay)
               (List.sort compare (Graph.links g))
               (List.sort compare (Graph.links g2)))

(* The migrate verb names a virtual node and a *physical* target, so it
   elaborates in [to_spec] where the substrate graph is in scope. *)
let test_migrate_verb () =
  let text =
    {|experiment mig
node a
node b
link a b
at 7 migrate b pop3
|}
  in
  (match Spec_lang.to_spec (parse_ok text) ~phys:(phys ()) with
  | Error e -> Alcotest.failf "to_spec: %s" e
  | Ok spec -> (
      check Alcotest.bool "validates" true (Experiment.validate spec = Ok ());
      match spec.Experiment.events with
      | [ ev ] ->
          check Alcotest.string "elaborated" "migrate 1 3"
            (Experiment.action_to_string ev.Experiment.action)
      | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)));
  let expect_elab_error text frag =
    let full = "experiment bad\nnode a\nnode b\nlink a b\n" ^ text ^ "\n" in
    match Spec_lang.to_spec (parse_ok full) ~phys:(phys ()) with
    | Ok _ -> Alcotest.failf "expected elaboration failure (%s)" frag
    | Error e ->
        let has =
          let n = String.length frag in
          let rec go i =
            i + n <= String.length e && (String.sub e i n = frag || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool
          (Printf.sprintf "error mentions %S (got %S)" frag e)
          true has
  in
  expect_elab_error "at 5 migrate z pop3" "unknown node";
  expect_elab_error "at 5 migrate b pop9" "unknown physical node";
  expect_parse_error "experiment x\nnode a\nat 5 migrate a\n" "expects 2"

let test_domains_verb () =
  (* Experiments run on one single-queue engine, so [domains N] is not a
     directive: the parser rejects it with its line number, as an error
     value rather than an exception. *)
  match Spec_lang.parse "experiment d\nnode a\ndomains 4\n" with
  | Ok _ -> Alcotest.fail "domains 4 accepted"
  | Error e ->
      check Alcotest.string "unknown directive"
        "line 3: unknown directive \"domains\"" e

let suite =
  [
    Alcotest.test_case "example parses+elaborates" `Quick
      test_example_parses_and_elaborates;
    Alcotest.test_case "bandwidth/delay units" `Quick test_units;
    Alcotest.test_case "slice forms" `Quick test_slice_forms;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "embedding resolution" `Quick test_embedding_resolution;
    Alcotest.test_case "duplicate embed rejected" `Quick
      test_duplicate_embed_rejected;
    Alcotest.test_case "embedding errors" `Quick test_embedding_errors;
    Alcotest.test_case "spec runs end to end" `Quick test_spec_runs_end_to_end;
    Alcotest.test_case "chaos verbs round-trip" `Quick
      test_chaos_verbs_roundtrip;
    Alcotest.test_case "chaos verb errors" `Quick test_chaos_verb_errors;
    Alcotest.test_case "migrate verb" `Quick test_migrate_verb;
    Alcotest.test_case "domains verb" `Quick test_domains_verb;
    QCheck_alcotest.to_alcotest prop_spec_topology_roundtrip;
  ]
