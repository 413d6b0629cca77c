module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Plink = Vini_phys.Plink
module Json = Vini_std.Json

type fidelity = Packet | Flow | Hybrid

let fidelity_of_string = function
  | "packet" -> Ok Packet
  | "flow" -> Ok Flow
  | "hybrid" -> Ok Hybrid
  | s ->
      Error
        (Printf.sprintf "unknown fidelity %S (expected packet | flow | hybrid)" s)

let fidelity_to_string = function
  | Packet -> "packet"
  | Flow -> "flow"
  | Hybrid -> "hybrid"

let default_tick = Time.ms 100

type config = {
  fidelity : fidelity;
  tick : Time.t;
  workload : Workload.params;
}

type link_load = {
  util : float;
  queue_delay : Time.t;
  loss : float;
  offered_bps : float;
}

type totals = {
  flows : int;
  offered_bytes : float;
  drained_bytes : float;
  dropped_bytes : float;
  backlog_bytes : float;
}

(* One fluid queue per directed substrate link.  [inflow] accumulates
   demand routed onto the link since the last fold; the fold drains it
   against capacity and leaves [backlog]. *)
type dir_q = {
  mutable backlog : float;  (* bytes queued *)
  mutable inflow : float;  (* bytes arrived this tick *)
  mutable last : link_load;  (* as of the last fold, for readers *)
}

let zero_load =
  { util = 0.0; queue_delay = Time.zero; loss = 0.0; offered_bps = 0.0 }

type t = {
  cfg : config;
  under : Underlay.t;
  graph : Graph.t;
  stream : Workload.t;
  links : Graph.link array;  (* indexed link table, list order *)
  qs : dir_q array;  (* 2 per link: [2i] is a->b, [2i+1] is b->a *)
  edge_index : (int * int, int) Hashtbl.t;  (* (min, max) -> link index *)
  paths : (int * int, int list) Hashtbl.t;  (* (src, dst) -> dir_q ids *)
  mutable flows : int;
  mutable offered : float;
  mutable drained : float;
  mutable dropped : float;
  mutable ticks : int;
  mutable stopped : bool;
}

let dir_of u v = if u < v then 0 else 1

(* Walk the underlay's next-hop tables from src to dst, returning the
   directed-queue ids along the way.  Memoised; the cache is flushed on
   every underlay topology upcall so chaos redirects background load the
   same way it redirects packets. *)
let route t src dst =
  match Hashtbl.find_opt t.paths (src, dst) with
  | Some p -> Some p
  | None ->
      let n = Graph.node_count t.graph in
      let rec walk acc hops u =
        if u = dst then Some (List.rev acc)
        else if hops > n then None (* routing loop: treat as blackhole *)
        else
          match Underlay.next_hop t.under ~from:u ~dst with
          | None -> None
          | Some v -> (
              match Hashtbl.find_opt t.edge_index (min u v, max u v) with
              | None -> None
              | Some li -> walk ((2 * li) + dir_of u v :: acc) (hops + 1) v)
      in
      let p = walk [] 0 src in
      (match p with Some p -> Hashtbl.replace t.paths (src, dst) p | None -> ());
      p

let capacity_bps t li = t.links.(li).Graph.bandwidth_bps

(* Fluid queues cap at the same drop-tail byte limit the packet path
   uses, so flow-level and packet-level congestion agree on where loss
   starts. *)
let queue_limit = float_of_int Vini_phys.Calibration.link_queue_bytes

let fold t =
  let now_bin = Engine.now (Underlay.engine t.under) in
  (* 1. Pull every flow due by now and add its wire bytes along its
     path.  Offered load is link-level (bytes x hops traversed), so it
     balances against the per-link drain/drop/backlog sums below.  A
     blackholed flow (no route) is dropped whole at the edge. *)
  while Time.compare (Workload.peek_time t.stream) now_bin <= 0 do
    let f = Workload.next t.stream in
    t.flows <- t.flows + 1;
    let bytes = float_of_int f.Workload.wire_bytes in
    match route t f.Workload.src_node f.Workload.dst_node with
    | None ->
        t.offered <- t.offered +. bytes;
        t.dropped <- t.dropped +. bytes
    | Some path ->
        List.iter
          (fun qi ->
            t.offered <- t.offered +. bytes;
            t.qs.(qi).inflow <- t.qs.(qi).inflow +. bytes)
          path
  done;
  (* 2. Drain each directed link at capacity for one tick; excess over
     the queue limit is dropped.  Offered = drained + dropped + backlog
     holds exactly (all float additions, same order every run). *)
  let tick_s = Time.to_sec_f t.cfg.tick in
  Array.iteri
    (fun qi q ->
      let li = qi / 2 in
      let l = t.links.(li) in
      let cap_bytes_s = capacity_bps t li /. 8.0 in
      let up = Underlay.link_is_up t.under l.Graph.a l.Graph.b in
      let arrived = q.inflow in
      let total = q.backlog +. arrived in
      let drained, dropped, backlog =
        if not up then (0.0, total, 0.0)
        else begin
          let drained = Float.min total (cap_bytes_s *. tick_s) in
          let rest = total -. drained in
          let dropped = Float.max 0.0 (rest -. queue_limit) in
          (drained, dropped, rest -. dropped)
        end
      in
      q.inflow <- 0.0;
      q.backlog <- backlog;
      t.drained <- t.drained +. drained;
      t.dropped <- t.dropped +. dropped;
      let load =
        {
          util =
            (if cap_bytes_s *. tick_s > 0.0 then
               Float.min 1.0 (drained /. (cap_bytes_s *. tick_s))
             else 0.0);
          queue_delay = Time.of_sec_f (backlog /. cap_bytes_s);
          loss = (if total > 0.0 then Float.min 1.0 (dropped /. total) else 0.0);
          offered_bps = arrived *. 8.0 /. tick_s;
        }
      in
      q.last <- load;
      (* 3. Hybrid coupling: the packet path on this link sees the fluid
         queue as added delay and loss pressure. *)
      if t.cfg.fidelity = Hybrid && up then
        Plink.set_background
          (Underlay.plink t.under l.Graph.a l.Graph.b)
          ~dir:(qi mod 2) ~delay:load.queue_delay ~loss:load.loss)
    t.qs

let install ~under cfg =
  if Time.compare cfg.tick Time.zero <= 0 then
    invalid_arg "Fluid.install: tick must be positive";
  (match Workload.validate cfg.workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fluid.install: " ^ e));
  let graph = Underlay.graph under in
  let links = Array.of_list (Graph.links graph) in
  let edge_index = Hashtbl.create (Array.length links) in
  Array.iteri
    (fun i l ->
      Hashtbl.replace edge_index
        (min l.Graph.a l.Graph.b, max l.Graph.a l.Graph.b)
        i)
    links;
  let t =
    {
      cfg;
      under;
      graph;
      stream = Workload.create cfg.workload ~nodes:(Graph.node_count graph);
      links;
      qs =
        Array.init
          (2 * Array.length links)
          (fun _ -> { backlog = 0.0; inflow = 0.0; last = zero_load });
      edge_index;
      paths = Hashtbl.create 64;
      flows = 0;
      offered = 0.0;
      drained = 0.0;
      dropped = 0.0;
      ticks = 0;
      stopped = false;
    }
  in
  if cfg.fidelity <> Packet then begin
    Underlay.subscribe under (fun _ -> Hashtbl.reset t.paths);
    Engine.every (Underlay.engine under) cfg.tick (fun () ->
        if not t.stopped then begin
          fold t;
          t.ticks <- t.ticks + 1
        end;
        not t.stopped)
  end;
  t

let config t = t.cfg

let totals t =
  let backlog = Array.fold_left (fun acc q -> acc +. q.backlog) 0.0 t.qs in
  {
    flows = t.flows;
    offered_bytes = t.offered;
    drained_bytes = t.drained;
    dropped_bytes = t.dropped;
    backlog_bytes = backlog;
  }

let link_load t ~a ~b =
  match Hashtbl.find_opt t.edge_index (min a b, max a b) with
  | None -> raise Not_found
  | Some li -> t.qs.((2 * li) + dir_of a b).last

let ticks t = t.ticks

let to_json t =
  let tot = totals t in
  let per_link =
    List.concat
      (List.mapi
         (fun li (l : Graph.link) ->
           List.map
             (fun d ->
               let q = t.qs.((2 * li) + d) in
               let u, v =
                 if d = 0 then (l.Graph.a, l.Graph.b) else (l.Graph.b, l.Graph.a)
               in
               Json.Obj
                 [
                   ("from", Json.Str (Graph.name t.graph u));
                   ("to", Json.Str (Graph.name t.graph v));
                   ("util", Json.Num q.last.util);
                   ( "queue_delay_ms",
                     Json.Num (Time.to_ms_f q.last.queue_delay) );
                   ("loss", Json.Num q.last.loss);
                   ("offered_bps", Json.Num q.last.offered_bps);
                   ("backlog_bytes", Json.Num q.backlog);
                 ])
             [ 0; 1 ])
         (Array.to_list t.links))
  in
  Json.Obj
    [
      ("fidelity", Json.Str (fidelity_to_string t.cfg.fidelity));
      ("tick_ms", Json.Num (Time.to_ms_f t.cfg.tick));
      ("ticks", Json.Num (float_of_int t.ticks));
      ("flows", Json.Num (float_of_int tot.flows));
      ("offered_bytes", Json.Num tot.offered_bytes);
      ("drained_bytes", Json.Num tot.drained_bytes);
      ("dropped_bytes", Json.Num tot.dropped_bytes);
      ("backlog_bytes", Json.Num tot.backlog_bytes);
      ("links", Json.Arr per_link);
    ]
