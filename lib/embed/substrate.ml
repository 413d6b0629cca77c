module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Pnode = Vini_phys.Pnode
module Cpu = Vini_phys.Cpu
module Plink = Vini_phys.Plink
module Calibration = Vini_phys.Calibration

type lstate = { l_cap : float; mutable l_used : float }

type t = {
  sgraph : Graph.t;
  caps : float array;
  used : float array;
  links : (int * int, lstate) Hashtbl.t;
  up_node : int -> bool;
  up_link : int -> int -> bool;
  mutable n_admitted : int;
  mutable n_rejected : int;
}

let key a b = (min a b, max a b)

let build graph ~node_capacity ~link_capacity ~up_node ~up_link =
  let n = Graph.node_count graph in
  let links = Hashtbl.create (Graph.link_count graph) in
  List.iter
    (fun (l : Graph.link) ->
      Hashtbl.replace links (key l.Graph.a l.Graph.b)
        { l_cap = link_capacity l; l_used = 0.0 })
    (Graph.links graph);
  {
    sgraph = graph;
    caps = Array.init n node_capacity;
    used = Array.make n 0.0;
    links;
    up_node;
    up_link;
    n_admitted = 0;
    n_rejected = 0;
  }

let of_graph ?(node_capacity = fun _ -> 1.0) graph =
  build graph ~node_capacity
    ~link_capacity:(fun l -> l.Graph.bandwidth_bps)
    ~up_node:(fun _ -> true)
    ~up_link:(fun _ _ -> true)

let of_underlay u =
  let graph = Underlay.graph u in
  build graph
    ~node_capacity:(fun i ->
      Cpu.speed_ghz (Pnode.cpu (Underlay.node u i)) /. Calibration.reference_ghz)
    ~link_capacity:(fun l ->
      Plink.bandwidth_bps (Underlay.plink u l.Graph.a l.Graph.b))
    ~up_node:(fun i -> Underlay.node_is_up u i)
    ~up_link:(fun a b -> Underlay.link_is_up u a b)

let graph t = t.sgraph
let node_capacity t i = t.caps.(i)
let node_used t i = t.used.(i)
let node_residual t i = t.caps.(i) -. t.used.(i)

let lstate t a b =
  match Hashtbl.find_opt t.links (key a b) with
  | Some l -> l
  | None -> raise Not_found

let link_capacity t a b = (lstate t a b).l_cap
let link_used t a b = (lstate t a b).l_used
let link_residual t a b =
  let l = lstate t a b in
  l.l_cap -. l.l_used

let node_up t i = t.up_node i
let link_up t a b = t.up_link a b

let reserve_node t i amount = t.used.(i) <- t.used.(i) +. amount
let release_node t i amount = t.used.(i) <- Float.max 0.0 (t.used.(i) -. amount)

let iter_path_links path f =
  let rec go = function
    | a :: (b :: _ as rest) ->
        f a b;
        go rest
    | [ _ ] | [] -> ()
  in
  go path

let reserve_path t path bw =
  if bw > 0.0 then
    iter_path_links path (fun a b ->
        let l = lstate t a b in
        l.l_used <- l.l_used +. bw)

let release_path t path bw =
  if bw > 0.0 then
    iter_path_links path (fun a b ->
        let l = lstate t a b in
        l.l_used <- Float.max 0.0 (l.l_used -. bw))

let note_admitted t = t.n_admitted <- t.n_admitted + 1
let note_rejected t = t.n_rejected <- t.n_rejected + 1
let admitted t = t.n_admitted
let rejected t = t.n_rejected

let acceptance_rate t =
  let total = t.n_admitted + t.n_rejected in
  if total = 0 then 1.0 else float_of_int t.n_admitted /. float_of_int total

let max_node_stress t =
  let m = ref 0.0 in
  Array.iteri
    (fun i cap -> if cap > 0.0 then m := Float.max !m (t.used.(i) /. cap))
    t.caps;
  !m

let residual_histogram t =
  let buckets = 10 in
  let counts = Array.make buckets 0 in
  Array.iteri
    (fun i cap ->
      let frac = if cap <= 0.0 then 0.0 else (cap -. t.used.(i)) /. cap in
      let b =
        min (buckets - 1) (max 0 (int_of_float (frac *. float_of_int buckets)))
      in
      counts.(b) <- counts.(b) + 1)
    t.caps;
  Array.init buckets (fun b ->
      let w = 1.0 /. float_of_int buckets in
      (float_of_int b *. w, float_of_int (b + 1) *. w, counts.(b)))
