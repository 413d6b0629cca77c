module Prefix = Vini_net.Prefix

type proto = Connected | Static | Ebgp | Ospf | Rip | Ibgp

let admin_distance = function
  | Connected -> 0
  | Static -> 1
  | Ebgp -> 20
  | Ospf -> 110
  | Rip -> 120
  | Ibgp -> 200

let proto_name = function
  | Connected -> "connected"
  | Static -> "static"
  | Ebgp -> "ebgp"
  | Ospf -> "ospf"
  | Rip -> "rip"
  | Ibgp -> "ibgp"

type route = { next_hop : Vini_net.Addr.t; metric : int; proto : proto }

type change = Install of Prefix.t * route | Withdraw of Prefix.t

module Pmap = Map.Make (Prefix)

type t = {
  fea : change -> unit;
  (* candidates per prefix, keyed by protocol *)
  mutable candidates : route list Pmap.t;
  mutable best : route Pmap.t;
}

let create ~fea () = { fea; candidates = Pmap.empty; best = Pmap.empty }

let pick = function
  | [] -> None
  | routes ->
      let better a b =
        let c = compare (admin_distance a.proto) (admin_distance b.proto) in
        if c <> 0 then c
        else
          let c = compare a.metric b.metric in
          if c <> 0 then c
          else Vini_net.Addr.compare a.next_hop b.next_hop
      in
      Some (List.hd (List.sort better routes))

let refresh t prefix =
  let cands = Option.value ~default:[] (Pmap.find_opt prefix t.candidates) in
  let old_best = Pmap.find_opt prefix t.best in
  let new_best = pick cands in
  let module Trace = Vini_sim.Trace in
  let trace action =
    if Trace.on Trace.Category.Route_update then
      Trace.emit ~component:"rib"
        (Trace.Route_update
           { prefix = Vini_net.Prefix.to_string prefix; action })
  in
  match (old_best, new_best) with
  | None, None -> ()
  | Some o, Some n when o = n -> ()
  | _, Some n ->
      t.best <- Pmap.add prefix n t.best;
      trace ("install via " ^ proto_name n.proto);
      t.fea (Install (prefix, n))
  | Some _, None ->
      t.best <- Pmap.remove prefix t.best;
      trace "withdraw";
      t.fea (Withdraw prefix)

let update t ~proto prefix route =
  (match route with
  | Some r when r.proto <> proto -> invalid_arg "Rib.update: proto mismatch"
  | Some _ | None -> ());
  let cands = Option.value ~default:[] (Pmap.find_opt prefix t.candidates) in
  let cands = List.filter (fun r -> r.proto <> proto) cands in
  let cands = match route with Some r -> r :: cands | None -> cands in
  t.candidates <-
    (if cands = [] then Pmap.remove prefix t.candidates
     else Pmap.add prefix cands t.candidates);
  refresh t prefix

let replace_all t ~proto routes =
  List.iter
    (fun (_, (r : route)) ->
      if r.proto <> proto then invalid_arg "Rib.replace_all: proto mismatch")
    routes;
  (* Collect prefixes that currently carry a candidate from this proto. *)
  let stale =
    Pmap.fold
      (fun p cands acc ->
        if List.exists (fun r -> r.proto = proto) cands then p :: acc else acc)
      t.candidates []
  in
  let fresh = List.map fst routes in
  List.iter (fun p -> update t ~proto p None)
    (List.filter (fun p -> not (List.mem p fresh)) stale);
  List.iter (fun (p, r) -> update t ~proto p (Some r)) routes

let best t prefix = Pmap.find_opt prefix t.best
let routes t = Pmap.bindings t.best

(* Re-announce every current best route through the FEA: after a data-plane
   crash the fresh (empty) FIB is repopulated from here, so routes survive
   the restart even before the protocols reconverge. *)
let reinstall t = Pmap.iter (fun p r -> t.fea (Install (p, r))) t.best
