module Time = Vini_sim.Time
module Graph = Vini_topo.Graph
module Prefix = Vini_net.Prefix
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Generate = Vini_scenario.Generate
module Workload = Vini_scenario.Workload
module Fluid = Vini_scenario.Fluid

type substrate_decl =
  | Sub_generate of Generate.spec
  | Sub_load of string  (* path to a vini.topo/1 file, resolved lazily *)

type link_decl = {
  l_a : string;
  l_b : string;
  bw : float;
  delay : Time.t;
  weight : int;
  l_loss : float;
}

type event_decl = { ev_at : float; verb : string; args : string list }

type parsed = {
  p_name : string;
  p_slice : Slice.t;
  nodes : string list;           (* declaration order *)
  links : link_decl list;
  p_routing : Iias.routing_choice;
  embeds : (string * string) list;
  p_ingresses : (string * Prefix.t) list;
  p_egresses : string list;
  p_events : event_decl list;
  p_substrate : substrate_decl option;
  p_workload : Workload.params option;
  p_fidelity : (Fluid.fidelity * Time.t) option;
}

(* --- unit parsing -------------------------------------------------------- *)

let parse_bw s =
  let s = String.lowercase_ascii s in
  let n = String.length s in
  let scaled suffix mult =
    if n > 1 && String.sub s (n - String.length suffix) (String.length suffix) = suffix
    then
      Option.map
        (fun v -> v *. mult)
        (float_of_string_opt (String.sub s 0 (n - String.length suffix)))
    else None
  in
  match (scaled "g" 1e9, scaled "m" 1e6, scaled "k" 1e3) with
  | Some v, _, _ | _, Some v, _ | _, _, Some v -> Some v
  | None, None, None -> float_of_string_opt s

let parse_delay s =
  let s = String.lowercase_ascii s in
  let n = String.length s in
  let with_suffix suffix to_time =
    let sl = String.length suffix in
    if n > sl && String.sub s (n - sl) sl = suffix then
      Option.map to_time (float_of_string_opt (String.sub s 0 (n - sl)))
    else None
  in
  match with_suffix "us" (fun v -> Time.of_sec_f (v *. 1e-6)) with
  | Some t -> Some t
  | None -> (
      match with_suffix "ms" Time.of_ms_f with
      | Some t -> Some t
      | None -> with_suffix "s" Time.of_sec_f)

(* --- line parsing ---------------------------------------------------------- *)

let tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")

type builder = {
  mutable b_name : string option;
  mutable b_slice : Slice.t option;
  mutable b_nodes : string list;
  mutable b_links : link_decl list;
  mutable b_routing : Iias.routing_choice option;
  mutable b_embeds : (string * string) list;
  mutable b_ingresses : (string * Prefix.t) list;
  mutable b_egresses : string list;
  mutable b_events : event_decl list;
  mutable b_substrate : substrate_decl option;
  mutable b_workload : Workload.params option;
  mutable b_fidelity : (Fluid.fidelity * Time.t) option;
}

let known_node b n = List.mem n b.b_nodes

let parse_link_opts b a bnode rest =
  let rec go l = function
    | [] -> Ok l
    | "bw" :: v :: rest -> (
        match parse_bw v with
        | Some bw when bw > 0.0 -> go { l with bw } rest
        | Some _ | None -> Error (Printf.sprintf "bad bandwidth %S" v))
    | "delay" :: v :: rest -> (
        match parse_delay v with
        | Some delay -> go { l with delay } rest
        | None -> Error (Printf.sprintf "bad delay %S" v))
    | "weight" :: v :: rest -> (
        match int_of_string_opt v with
        | Some weight when weight > 0 -> go { l with weight } rest
        | Some _ | None -> Error (Printf.sprintf "bad weight %S" v))
    | "loss" :: v :: rest -> (
        match float_of_string_opt v with
        | Some l_loss when l_loss >= 0.0 && l_loss <= 1.0 ->
            go { l with l_loss } rest
        | Some _ | None -> Error (Printf.sprintf "bad loss %S" v))
    | tok :: _ -> Error (Printf.sprintf "unknown link option %S" tok)
  in
  let base =
    { l_a = a; l_b = bnode; bw = 1e9; delay = Time.ms 1; weight = 1; l_loss = 0.0 }
  in
  match go base rest with
  | Error _ as e -> e
  | Ok l ->
      if not (known_node b a) then Error (Printf.sprintf "unknown node %S" a)
      else if not (known_node b bnode) then
        Error (Printf.sprintf "unknown node %S" bnode)
      else if a = bnode then Error "self-loop link"
      else if
        List.exists
          (fun x ->
            (x.l_a = a && x.l_b = bnode) || (x.l_a = bnode && x.l_b = a))
          b.b_links
      then Error (Printf.sprintf "duplicate link %s -- %s" a bnode)
      else begin
        b.b_links <- l :: b.b_links;
        Ok ()
      end

let event_verbs =
  [ ("fail-link", 2); ("restore-link", 2); ("set-loss", 3);
    ("set-bandwidth", 3); ("clear-bandwidth", 2); ("set-cost", 3);
    ("fail-physical", 2); ("restore-physical", 2);
    ("crash-node", 1); ("restore-node", 1); ("kill-process", 1);
    ("flap-link", 3); ("corrupt-link", 3); ("migrate", 2) ]

let feed b line =
  match tokens line with
  | [] -> Ok ()
  | [ "experiment"; n ] ->
      if b.b_name = None then begin
        b.b_name <- Some n;
        Ok ()
      end
      else Error "duplicate experiment line"
  | "slice" :: rest -> (
      if b.b_slice <> None then Error "duplicate slice line"
      else
        match rest with
        | [ "fair" ] ->
            b.b_slice <- Some (Slice.default_share "spec");
            Ok ()
        | [ "plvini" ] ->
            b.b_slice <- Some (Slice.pl_vini "spec");
            Ok ()
        | [ "reserved"; frac ] | [ "reserved"; frac; "rt" ] -> (
            match float_of_string_opt frac with
            | Some r when r >= 0.0 && r <= 1.0 ->
                let realtime = List.length rest = 3 in
                b.b_slice <- Some (Slice.create ~reservation:r ~realtime "spec");
                Ok ()
            | Some _ | None -> Error "bad reservation fraction")
        | _ -> Error "slice expects: fair | plvini | reserved FRAC [rt]")
  | [ "node"; n ] ->
      if known_node b n then Error (Printf.sprintf "duplicate node %S" n)
      else begin
        b.b_nodes <- b.b_nodes @ [ n ];
        Ok ()
      end
  | "link" :: a :: bnode :: rest -> parse_link_opts b a bnode rest
  | "routing" :: rest -> (
      if b.b_routing <> None then Error "duplicate routing line"
      else
        match rest with
        | [ "static" ] ->
            b.b_routing <- Some Iias.Static_routes;
            Ok ()
        | [ "ospf" ] ->
            b.b_routing <- Some Iias.default_ospf;
            Ok ()
        | [ "ospf"; "hello"; h; "dead"; d ] -> (
            match (int_of_string_opt h, int_of_string_opt d) with
            | Some h, Some d when h > 0 && d > h ->
                b.b_routing <-
                  Some
                    (Iias.Ospf_routing
                       {
                         hello = Time.sec h;
                         dead = Time.sec d;
                         spf_delay = Time.ms 200;
                       });
                Ok ()
            | _ -> Error "ospf timers must satisfy 0 < hello < dead")
        | [ "rip" ] ->
            b.b_routing <- Some (Iias.Rip_routing { scale = 1.0 });
            Ok ()
        | [ "rip"; "scale"; s ] -> (
            match float_of_string_opt s with
            | Some scale when scale > 0.0 ->
                b.b_routing <- Some (Iias.Rip_routing { scale });
                Ok ()
            | Some _ | None -> Error "bad rip scale")
        | _ -> Error "routing expects: ospf [hello H dead D] | rip [scale S] | static")
  | [ "embed"; v; "on"; p ] ->
      if not (known_node b v) then Error (Printf.sprintf "unknown node %S" v)
      else if List.mem_assoc v b.b_embeds then
        Error (Printf.sprintf "duplicate embed for %S" v)
      else if List.exists (fun (_, p') -> p' = p) b.b_embeds then
        Error (Printf.sprintf "duplicate embed target %S" p)
      else begin
        b.b_embeds <- b.b_embeds @ [ (v, p) ];
        Ok ()
      end
  | [ "ingress"; v; "pool"; pool ] -> (
      if not (known_node b v) then Error (Printf.sprintf "unknown node %S" v)
      else
        match Prefix.of_string_opt pool with
        | Some p ->
            b.b_ingresses <- b.b_ingresses @ [ (v, p) ];
            Ok ()
        | None -> Error (Printf.sprintf "bad pool prefix %S" pool))
  | [ "egress"; v ] ->
      if not (known_node b v) then Error (Printf.sprintf "unknown node %S" v)
      else begin
        b.b_egresses <- b.b_egresses @ [ v ];
        Ok ()
      end
  | "topology" :: rest -> (
      if b.b_substrate <> None then Error "duplicate topology line"
      else
        match rest with
        | [ "load"; path ] ->
            b.b_substrate <- Some (Sub_load path);
            Ok ()
        | "generate" :: kind :: n :: opts -> (
            match int_of_string_opt n with
            | None -> Error (Printf.sprintf "bad size %S" n)
            | Some size -> (
                let rec go ~seed ~alpha ~beta ~degree ~bw = function
                  | [] -> Ok (seed, alpha, beta, degree, bw)
                  | "seed" :: v :: rest -> (
                      match int_of_string_opt v with
                      | Some seed -> go ~seed ~alpha ~beta ~degree ~bw rest
                      | None -> Error (Printf.sprintf "bad seed %S" v))
                  | "alpha" :: v :: rest -> (
                      match float_of_string_opt v with
                      | Some a -> go ~seed ~alpha:(Some a) ~beta ~degree ~bw rest
                      | None -> Error (Printf.sprintf "bad alpha %S" v))
                  | "beta" :: v :: rest -> (
                      match float_of_string_opt v with
                      | Some x -> go ~seed ~alpha ~beta:(Some x) ~degree ~bw rest
                      | None -> Error (Printf.sprintf "bad beta %S" v))
                  | "degree" :: v :: rest -> (
                      match int_of_string_opt v with
                      | Some d -> go ~seed ~alpha ~beta ~degree:(Some d) ~bw rest
                      | None -> Error (Printf.sprintf "bad degree %S" v))
                  | "bw" :: v :: rest -> (
                      match parse_bw v with
                      | Some x when x > 0.0 ->
                          go ~seed ~alpha ~beta ~degree ~bw:(Some x) rest
                      | Some _ | None ->
                          Error (Printf.sprintf "bad bandwidth %S" v))
                  | tok :: _ ->
                      Error (Printf.sprintf "unknown topology option %S" tok)
                in
                match
                  go ~seed:1 ~alpha:None ~beta:None ~degree:None ~bw:None opts
                with
                | Error _ as e -> e
                | Ok (seed, alpha, beta, degree, bandwidth_bps) -> (
                    match
                      Generate.parse_kind kind ~n:size ?alpha ?beta ?degree
                        ?bandwidth_bps ()
                    with
                    | Error e -> Error e
                    | Ok k -> (
                        match Generate.generate { Generate.kind = k; seed } with
                        | _ ->
                            b.b_substrate <-
                              Some (Sub_generate { Generate.kind = k; seed });
                            Ok ()
                        | exception Invalid_argument msg -> Error msg))))
        | _ ->
            Error
              "topology expects: generate KIND N [seed S] [alpha A] [beta B] \
               [degree D] [bw BW] | load PATH")
  | "workload" :: "users" :: n :: opts -> (
      if b.b_workload <> None then Error "duplicate workload line"
      else
        match int_of_string_opt n with
        | None | Some 0 -> Error (Printf.sprintf "bad user count %S" n)
        | Some users when users < 0 ->
            Error (Printf.sprintf "bad user count %S" n)
        | Some users -> (
            let rec go (p : Workload.params) = function
              | [] -> Ok p
              | "seed" :: v :: rest -> (
                  match int_of_string_opt v with
                  | Some seed -> go { p with Workload.seed } rest
                  | None -> Error (Printf.sprintf "bad seed %S" v))
              | "rate" :: v :: rest -> (
                  match float_of_string_opt v with
                  | Some r when r > 0.0 ->
                      go { p with Workload.flow_rate_per_user = r } rest
                  | Some _ | None -> Error (Printf.sprintf "bad rate %S" v))
              | "bytes" :: v :: rest -> (
                  match float_of_string_opt v with
                  | Some x when x > 0.0 ->
                      go { p with Workload.mean_flow_bytes = x } rest
                  | Some _ | None ->
                      Error (Printf.sprintf "bad mean bytes %S" v))
              | "shape" :: v :: rest -> (
                  match float_of_string_opt v with
                  | Some a when a > 1.0 ->
                      go { p with Workload.pareto_shape = a } rest
                  | Some _ | None ->
                      Error (Printf.sprintf "bad pareto shape %S (need > 1)" v))
              | "skew" :: v :: rest -> (
                  match float_of_string_opt v with
                  | Some k when k >= 0.0 ->
                      go { p with Workload.popularity_skew = k } rest
                  | Some _ | None -> Error (Printf.sprintf "bad skew %S" v))
              | tok :: _ ->
                  Error (Printf.sprintf "unknown workload option %S" tok)
            in
            match go (Workload.default ~users ~seed:1) opts with
            | Error _ as e -> e
            | Ok p ->
                b.b_workload <- Some p;
                Ok ()))
  | "fidelity" :: level :: opts -> (
      if b.b_fidelity <> None then Error "duplicate fidelity line"
      else
        match Fluid.fidelity_of_string level with
        | Error e -> Error e
        | Ok f -> (
            let rec go tick = function
              | [] -> Ok tick
              | "tick" :: v :: rest -> (
                  match parse_delay v with
                  | Some t when Time.compare t Time.zero > 0 -> go t rest
                  | Some _ | None -> Error (Printf.sprintf "bad tick %S" v))
              | tok :: _ ->
                  Error (Printf.sprintf "unknown fidelity option %S" tok)
            in
            match go Fluid.default_tick opts with
            | Error _ as e -> e
            | Ok tick ->
                b.b_fidelity <- Some (f, tick);
                Ok ()))
  | "at" :: when_ :: verb :: args -> (
      match float_of_string_opt when_ with
      | None -> Error (Printf.sprintf "bad event time %S" when_)
      | Some t when t < 0.0 -> Error "event before t=0"
      | Some t -> (
          match List.assoc_opt verb event_verbs with
          | None -> Error (Printf.sprintf "unknown event %S" verb)
          | Some arity ->
              if List.length args <> arity then
                Error (Printf.sprintf "%s expects %d arguments" verb arity)
              else begin
                b.b_events <- b.b_events @ [ { ev_at = t; verb; args } ];
                Ok ()
              end))
  | tok :: _ -> Error (Printf.sprintf "unknown directive %S" tok)

let parse text =
  let b =
    {
      b_name = None;
      b_slice = None;
      b_nodes = [];
      b_links = [];
      b_routing = None;
      b_embeds = [];
      b_ingresses = [];
      b_egresses = [];
      b_events = [];
      b_substrate = None;
      b_workload = None;
      b_fidelity = None;
    }
  in
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> Ok ()
    | line :: rest -> (
        match feed b line with
        | Ok () -> go (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> (
      match b.b_name with
      | None -> Error "missing experiment line"
      | Some p_name ->
          if b.b_nodes = [] then Error "no nodes declared"
          else
            Ok
              {
                p_name;
                p_slice =
                  Option.value b.b_slice ~default:(Slice.pl_vini p_name);
                nodes = b.b_nodes;
                links = List.rev b.b_links;
                p_routing = Option.value b.b_routing ~default:Iias.default_ospf;
                embeds = b.b_embeds;
                p_ingresses = b.b_ingresses;
                p_egresses = b.b_egresses;
                p_events = b.b_events;
                p_substrate = b.b_substrate;
                p_workload = b.b_workload;
                p_fidelity = b.b_fidelity;
              })

(* --- elaboration ----------------------------------------------------------- *)

let name p = p.p_name
let slice p = p.p_slice
let workload p = p.p_workload
let fidelity p = p.p_fidelity

(* Resolve a declared substrate to a graph: a generator spec is
   regenerated (byte-identical per seed), a load declaration reads its
   vini.topo/1 file here, at resolution time. *)
let substrate_graph p =
  match p.p_substrate with
  | None -> Ok None
  | Some (Sub_generate gs) -> Ok (Some (Generate.generate gs))
  | Some (Sub_load path) -> (
      match Generate.load_file path with
      | Ok g -> Ok (Some g)
      | Error e -> Error e)

let node_index p n =
  let rec go i = function
    | [] -> None
    | x :: _ when x = n -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 p.nodes

let vtopo p =
  let names = Array.of_list p.nodes in
  let links =
    List.map
      (fun l ->
        {
          Graph.a = Option.get (node_index p l.l_a);
          b = Option.get (node_index p l.l_b);
          bandwidth_bps = l.bw;
          delay = l.delay;
          loss = l.l_loss;
          weight = l.weight;
        })
      p.links
  in
  Graph.relabel p.p_name @@ Graph.create ~names ~links

let elaborate_event p ev =
  let node n =
    match node_index p n with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "event references unknown node %S" n)
  in
  let ( let* ) = Result.bind in
  let two k = function
    | [ a; b ] ->
        let* a = node a in
        let* b = node b in
        Ok (k a b)
    | _ -> Error "bad arity"
  in
  let one k = function
    | [ a ] ->
        let* a = node a in
        Ok (k a)
    | _ -> Error "bad arity"
  in
  let* action =
    match (ev.verb, ev.args) with
    | "fail-link", args -> two (fun a b -> Experiment.Fail_vlink (a, b)) args
    | "restore-link", args ->
        two (fun a b -> Experiment.Restore_vlink (a, b)) args
    | "clear-bandwidth", args ->
        two (fun a b -> Experiment.Set_vlink_bandwidth (a, b, None)) args
    | "fail-physical", args -> two (fun a b -> Experiment.Fail_plink (a, b)) args
    | "restore-physical", args ->
        two (fun a b -> Experiment.Restore_plink (a, b)) args
    | "set-loss", [ a; b; v ] -> (
        match float_of_string_opt v with
        | Some loss when loss >= 0.0 && loss <= 1.0 ->
            two (fun a b -> Experiment.Set_vlink_loss (a, b, loss)) [ a; b ]
        | Some _ | None -> Error (Printf.sprintf "bad loss %S" v))
    | "set-bandwidth", [ a; b; v ] -> (
        match parse_bw v with
        | Some bw when bw > 0.0 ->
            two
              (fun a b -> Experiment.Set_vlink_bandwidth (a, b, Some bw))
              [ a; b ]
        | Some _ | None -> Error (Printf.sprintf "bad bandwidth %S" v))
    | "set-cost", [ a; b; v ] -> (
        match int_of_string_opt v with
        | Some cost when cost > 0 ->
            two (fun a b -> Experiment.Set_vlink_cost (a, b, cost)) [ a; b ]
        | Some _ | None -> Error (Printf.sprintf "bad cost %S" v))
    | "crash-node", args -> one (fun v -> Experiment.Crash_pnode v) args
    | "restore-node", args -> one (fun v -> Experiment.Restore_pnode v) args
    | "kill-process", args -> one (fun v -> Experiment.Kill_process v) args
    | "flap-link", [ a; b; v ] -> (
        match float_of_string_opt v with
        | Some down when down > 0.0 ->
            two (fun a b -> Experiment.Flap_vlink (a, b, down)) [ a; b ]
        | Some _ | None -> Error (Printf.sprintf "bad flap downtime %S" v))
    | "corrupt-link", [ a; b; v ] -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 ->
            two (fun a b -> Experiment.Corrupt_vlink (a, b, p)) [ a; b ]
        | Some _ | None -> Error (Printf.sprintf "bad corruption probability %S" v))
    | verb, _ -> Error (Printf.sprintf "unknown event %S" verb)
  in
  Ok { Experiment.at = Time.of_sec_f ev.ev_at; action }

let to_spec p ~phys =
  let ( let* ) = Result.bind in
  (* Placement: explicit embeds and same-name physical nodes become pins;
     everything else is placed by the capacity-aware solver at deploy
     time. *)
  let phys_index name = Graph.id_of_name_opt phys name in
  let unknown_phys name =
    Printf.sprintf "unknown physical node %S (substrate %S has no such node)"
      name (Graph.label phys)
  in
  let* () =
    if List.length p.nodes > Graph.node_count phys then
      Error "physical substrate too small for the virtual topology"
    else Ok ()
  in
  let* explicit =
    List.fold_left
      (fun acc (v, pname) ->
        let* acc = acc in
        match phys_index pname with
        | Some pi -> Ok ((v, pi) :: acc)
        | None -> Error (unknown_phys pname))
      (Ok []) p.embeds
  in
  let used = Hashtbl.create 8 in
  List.iter (fun (_, pi) -> Hashtbl.replace used pi ()) explicit;
  let pinned = Hashtbl.create 8 in
  List.iter (fun (v, pi) -> Hashtbl.replace pinned v pi) explicit;
  (* Same-name pass: a virtual node named like a physical node sticks to
     it unless an explicit embed already claimed that machine. *)
  List.iter
    (fun v ->
      if not (Hashtbl.mem pinned v) then
        match phys_index v with
        | Some pi when not (Hashtbl.mem used pi) ->
            Hashtbl.replace pinned v pi;
            Hashtbl.replace used pi ()
        | Some _ | None -> ())
    p.nodes;
  let* events =
    List.fold_left
      (fun acc ev ->
        let* acc = acc in
        (* [migrate VNODE PHYS] is the one verb naming a physical node, so
           it elaborates here, where the substrate is in scope. *)
        let* e =
          match (ev.verb, ev.args) with
          | "migrate", [ v; pname ] -> (
              match node_index p v with
              | None ->
                  Error (Printf.sprintf "event references unknown node %S" v)
              | Some vi -> (
                  match phys_index pname with
                  | Some pi ->
                      Ok
                        {
                          Experiment.at = Time.of_sec_f ev.ev_at;
                          action = Experiment.Migrate_vnode (vi, pi);
                        }
                  | None -> Error (unknown_phys pname)))
          | _ -> elaborate_event p ev
        in
        Ok (e :: acc))
      (Ok []) p.p_events
  in
  let index_of name = Option.get (node_index p name) in
  let vtopo = vtopo p in
  let pins =
    List.filter_map
      (fun v ->
        Option.map (fun pi -> (index_of v, pi)) (Hashtbl.find_opt pinned v))
      p.nodes
  in
  (* The slice's CPU reservation is exactly what admission control must
     guarantee per virtual node; a fair-share slice demands nothing.  The
     seed only breaks exact-cost ties, derived stably from the name. *)
  let req =
    Vini_embed.Request.make ~name:p.p_name
      ~cpu:(fun _ -> p.p_slice.Slice.reservation)
      ~pins
      ~seed:(Hashtbl.hash p.p_name land 0xffff)
      ()
  in
  (* The scenario half: a workload line turns into a background fluid
     model; the default fidelity is hybrid (the headline mode), and a
     fidelity line without a workload has nothing to apply to. *)
  let* scenario =
    match (p.p_workload, p.p_fidelity) with
    | None, Some _ ->
        Error "fidelity declared without a workload line"
    | None, None -> Ok None
    | Some workload, fid ->
        let fidelity, tick =
          Option.value fid ~default:(Fluid.Hybrid, Fluid.default_tick)
        in
        Ok (Some { Experiment.workload; fidelity; tick })
  in
  let spec =
    Experiment.make ~name:p.p_name ~slice:p.p_slice ~vtopo
      ~placement:(Experiment.Auto req) ~routing:p.p_routing
      ~ingresses:(List.map (fun (v, pool) -> (index_of v, pool)) p.p_ingresses)
      ~egresses:(List.map index_of p.p_egresses)
      ~events:(List.rev events) ?scenario ()
  in
  let* () = Experiment.validate ~phys spec in
  Ok spec

let load text ~phys =
  let ( let* ) = Result.bind in
  let* p = parse text in
  to_spec p ~phys

let example =
  {|# A four-site ring with a controlled failure and a maintenance event.
experiment ring-demo
slice reserved 0.25 rt

node alpha
node beta
node gamma
node delta
link alpha beta  bw 1g delay 5ms  weight 50
link beta  gamma bw 1g delay 8ms  weight 80
link gamma delta bw 1g delay 4ms  weight 40
link delta alpha bw 1g delay 12ms weight 120

routing ospf hello 5 dead 10

at 10 fail-link alpha beta
at 20 set-cost gamma delta 4000
at 34 restore-link alpha beta
at 40 set-bandwidth beta gamma 5m
at 45 clear-bandwidth beta gamma
|}
