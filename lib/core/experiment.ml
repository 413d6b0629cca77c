module Time = Vini_sim.Time
module Graph = Vini_topo.Graph
module Iias = Vini_overlay.Iias

type action =
  | Fail_vlink of int * int
  | Restore_vlink of int * int
  | Fail_plink of int * int
  | Restore_plink of int * int
  | Set_vlink_loss of int * int * float
  | Set_vlink_bandwidth of int * int * float option
  | Set_vlink_cost of int * int * int
  | Crash_pnode of int
  | Restore_pnode of int
  | Kill_process of int
  | Flap_vlink of int * int * float
  | Corrupt_vlink of int * int * float
  | Migrate_vnode of int * int
  | Custom of string * (Iias.t -> unit)

let is_chaos_action = function
  | Crash_pnode _ | Restore_pnode _ | Kill_process _ | Flap_vlink _
  | Corrupt_vlink _ ->
      true
  | Fail_vlink _ | Restore_vlink _ | Fail_plink _ | Restore_plink _
  | Set_vlink_loss _ | Set_vlink_bandwidth _ | Set_vlink_cost _
  | Migrate_vnode _ | Custom _ ->
      false

let action_to_string = function
  | Fail_vlink (a, b) -> Printf.sprintf "fail-link %d %d" a b
  | Restore_vlink (a, b) -> Printf.sprintf "restore-link %d %d" a b
  | Fail_plink (a, b) -> Printf.sprintf "fail-plink %d %d" a b
  | Restore_plink (a, b) -> Printf.sprintf "restore-plink %d %d" a b
  | Set_vlink_loss (a, b, l) -> Printf.sprintf "set-loss %d %d %g" a b l
  | Set_vlink_bandwidth (a, b, Some r) ->
      Printf.sprintf "set-bandwidth %d %d %g" a b r
  | Set_vlink_bandwidth (a, b, None) ->
      Printf.sprintf "unset-bandwidth %d %d" a b
  | Set_vlink_cost (a, b, c) -> Printf.sprintf "set-cost %d %d %d" a b c
  | Crash_pnode v -> Printf.sprintf "crash-node %d" v
  | Restore_pnode v -> Printf.sprintf "restore-node %d" v
  | Kill_process v -> Printf.sprintf "kill-process %d" v
  | Flap_vlink (a, b, d) -> Printf.sprintf "flap-link %d %d %g" a b d
  | Corrupt_vlink (a, b, p) -> Printf.sprintf "corrupt-link %d %d %g" a b p
  | Migrate_vnode (v, p) -> Printf.sprintf "migrate %d %d" v p
  | Custom (name, _) -> Printf.sprintf "custom %s" name

type event = { at : Time.t; action : action }

type placement =
  | Pinned of (int -> int)
  | Auto of Vini_embed.Request.t

type scenario = {
  workload : Vini_scenario.Workload.params;
  fidelity : Vini_scenario.Fluid.fidelity;
  tick : Time.t;
}

type spec = {
  exp_name : string;
  slice : Vini_phys.Slice.t;
  vtopo : Graph.t;
  placement : placement;
  routing : Iias.routing_choice;
  ingresses : (int * Vini_net.Prefix.t) list;
  egresses : int list;
  events : event list;
  scenario : scenario option;
}

let make ~name ~slice ~vtopo ?embedding ?placement
    ?(routing = Iias.default_ospf) ?(ingresses = []) ?(egresses = [])
    ?(events = []) ?scenario () =
  let placement =
    match (embedding, placement) with
    | Some _, Some _ ->
        invalid_arg "Experiment.make: embedding and placement are exclusive"
    | Some f, None -> Pinned f
    | None, Some p -> p
    | None, None -> Pinned Fun.id
  in
  {
    exp_name = name;
    slice;
    vtopo;
    placement;
    routing;
    ingresses;
    egresses;
    events;
    scenario;
  }

let mirror ~name ~slice ~graph () =
  make ~name ~slice ~vtopo:graph ~events:[] ()

let at seconds action = { at = Time.of_sec_f seconds; action }

let validate ?phys spec =
  let n = Graph.node_count spec.vtopo in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let pn = Option.map Graph.node_count phys in
  let check_pnode what p =
    if p < 0 then err "%s targets negative physical node %d" what p
    else
      match pn with
      | Some count when p >= count ->
          err "%s targets nonexistent physical node %d (substrate has %d)" what
            p count
      | Some _ | None -> ()
  in
  (match spec.placement with
  | Pinned f ->
      let seen = Hashtbl.create n in
      for v = 0 to n - 1 do
        let p = f v in
        check_pnode (Printf.sprintf "embedding of virtual node %d" v) p;
        if Hashtbl.mem seen p then
          err "virtual nodes %d and %d share physical node %d"
            (Hashtbl.find seen p) v p
        else Hashtbl.replace seen p v
      done
  | Auto req ->
      let seenv = Hashtbl.create 8 and seenp = Hashtbl.create 8 in
      List.iter
        (fun (v, p) ->
          if v < 0 || v >= n then
            err "pin references virtual node %d out of range" v
          else if Hashtbl.mem seenv v then err "virtual node %d pinned twice" v
          else Hashtbl.replace seenv v ();
          check_pnode (Printf.sprintf "pin of virtual node %d" v) p;
          if p >= 0 then
            if Hashtbl.mem seenp p then err "physical node %d pinned twice" p
            else Hashtbl.replace seenp p ())
        req.Vini_embed.Request.pins);
  let check_vlink what a b =
    if a < 0 || a >= n || b < 0 || b >= n then
      err "%s references node out of range (%d, %d)" what a b
    else if Graph.find_link spec.vtopo a b = None then
      err "%s references non-adjacent nodes (%d, %d)" what a b
  in
  let check_vnode what v =
    if v < 0 || v >= n then err "%s references node out of range (%d)" what v
  in
  List.iter
    (fun ev ->
      if Time.compare ev.at Time.zero < 0 then err "event before t=0";
      match ev.action with
      | Fail_vlink (a, b) -> check_vlink "Fail_vlink" a b
      | Restore_vlink (a, b) -> check_vlink "Restore_vlink" a b
      | Set_vlink_loss (a, b, loss) ->
          check_vlink "Set_vlink_loss" a b;
          if loss < 0.0 || loss > 1.0 then err "loss outside [0,1]"
      | Set_vlink_bandwidth (a, b, rate) ->
          check_vlink "Set_vlink_bandwidth" a b;
          (match rate with
          | Some r when r <= 0.0 -> err "bandwidth must be positive"
          | Some _ | None -> ())
      | Set_vlink_cost (a, b, cost) ->
          check_vlink "Set_vlink_cost" a b;
          if cost <= 0 then err "cost must be positive"
      | Crash_pnode v -> check_vnode "Crash_pnode" v
      | Restore_pnode v -> check_vnode "Restore_pnode" v
      | Kill_process v -> check_vnode "Kill_process" v
      | Flap_vlink (a, b, down_s) ->
          check_vlink "Flap_vlink" a b;
          if down_s <= 0.0 then err "flap downtime must be positive"
      | Corrupt_vlink (a, b, p) ->
          check_vlink "Corrupt_vlink" a b;
          if p < 0.0 || p > 1.0 then err "corruption probability outside [0,1]"
      | Migrate_vnode (v, p) ->
          check_vnode "Migrate_vnode" v;
          check_pnode "Migrate_vnode" p
      | Fail_plink _ | Restore_plink _ | Custom _ -> ())
    spec.events;
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= n then err "ingress node %d out of range" v)
    spec.ingresses;
  List.iter
    (fun v -> if v < 0 || v >= n then err "egress node %d out of range" v)
    spec.egresses;
  (match spec.scenario with
  | None -> ()
  | Some sc ->
      (match Vini_scenario.Workload.validate sc.workload with
      | Ok () -> ()
      | Error e -> err "%s" e);
      if Time.compare sc.tick Time.zero <= 0 then
        err "scenario tick must be positive");
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))
