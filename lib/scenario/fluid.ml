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

(* Running link-level sums.  An all-float record is stored flat, so the
   per-hop updates in [fold] allocate nothing. *)
type sums = {
  mutable offered : float;
  mutable drained : float;
  mutable dropped : float;
}

(* One fluid queue per directed substrate link, [2i] for link [i]'s
   min->max direction and [2i+1] for max->min.  [inflow] accumulates
   demand routed onto the link since the last fold; the fold drains it
   against capacity and leaves [backlog].  Each queue's load as of the
   last fold sits in flat arrays ([util] .. [queue_delay]) that the fold
   overwrites in place; [link_load] and [to_json] read them. *)
type t = {
  cfg : config;
  under : Underlay.t;
  graph : Graph.t;
  stream : Workload.t;
  links : Graph.link array;  (* indexed link table, list order *)
  plinks : Plink.t array;  (* by link index *)
  (* slot_queue.(s) = the directed queue adjacency slot [s] feeds *)
  slot_queue : int array;
  backlog : float array;  (* bytes queued, by directed queue *)
  inflow : float array;  (* bytes arrived this tick, by directed queue *)
  util : float array;
  loss : float array;
  offered_bps : float array;
  queue_delay : int array;  (* a [Time.t] per queue *)
  path : int array;  (* one flow's queues, hop by hop; see [walk] *)
  sums : sums;
  mutable flows : int;
  mutable ticks : int;
  mutable stopped : bool;
}

let dir_of (u : int) v = if u < v then 0 else 1

(* The directed queue u->v, or -1 when u and v are not adjacent. *)
let queue_to t u v =
  let s = Graph.find_slot t.graph u v in
  if s < 0 then -1 else t.slot_queue.(s)

(* Follow the forwarding table from [u] to [dst] slot by slot, writing
   the directed queue of hop [i] to [path.(i)].  Returns the hop count,
   or -1 when the walk blackholes or outgrows [path] (one more than the
   node count: a routing loop). *)
let rec walk t ~dst hops u =
  if u = dst then hops
  else if hops = Array.length t.path then -1
  else begin
    let s = Underlay.forward_slot t.under ~from:u ~dst in
    if s < 0 then -1
    else begin
      t.path.(hops) <- t.slot_queue.(s);
      walk t ~dst (hops + 1) (Graph.slot_target t.graph s)
    end
  end

(* Fluid queues cap at the same drop-tail byte limit the packet path
   uses, so flow-level and packet-level congestion agree on where loss
   starts. *)
let queue_limit = float_of_int Vini_phys.Calibration.link_queue_bytes

let fold t =
  let now_bin = Engine.now (Underlay.engine t.under) in
  let sums = t.sums in
  (* 1. Pull every flow due by now and add its wire bytes along the path
     the underlay's forwarding table gives it, the one its packets would
     take.  Offered load is link-level (bytes x hops traversed), so it
     balances against the per-link drain/drop/backlog sums below.  A
     flow that cannot reach its destination (no route, a cut link, or a
     routing loop) is dropped whole at the edge, so the one walk records
     its queues and commits them only once it arrives. *)
  while Time.compare (Workload.peek_time t.stream) now_bin <= 0 do
    let f = Workload.next t.stream in
    t.flows <- t.flows + 1;
    let bytes = float_of_int f.Workload.wire_bytes in
    let hops = walk t ~dst:f.Workload.dst_node 0 f.Workload.src_node in
    if hops < 0 then begin
      sums.offered <- sums.offered +. bytes;
      sums.dropped <- sums.dropped +. bytes
    end
    else
      for i = 0 to hops - 1 do
        let qi = t.path.(i) in
        sums.offered <- sums.offered +. bytes;
        t.inflow.(qi) <- t.inflow.(qi) +. bytes
      done
  done;
  (* 2. Drain each directed link at capacity for one tick; excess over
     the queue limit is dropped.  Offered = drained + dropped + backlog
     holds exactly (all float additions, same order every run). *)
  let tick_s = Time.to_sec_f t.cfg.tick in
  for qi = 0 to Array.length t.inflow - 1 do
    let li = qi / 2 in
    let cap_bytes_s = t.links.(li).Graph.bandwidth_bps /. 8.0 in
    let up = Plink.is_up t.plinks.(li) in
    let arrived = t.inflow.(qi) in
    let total = t.backlog.(qi) +. arrived in
    let drained = if up then Float.min total (cap_bytes_s *. tick_s) else 0.0 in
    let dropped =
      if up then Float.max 0.0 (total -. drained -. queue_limit) else total
    in
    let backlog = if up then total -. drained -. dropped else 0.0 in
    t.inflow.(qi) <- 0.0;
    t.backlog.(qi) <- backlog;
    sums.drained <- sums.drained +. drained;
    sums.dropped <- sums.dropped +. dropped;
    let queue_delay = Time.of_sec_f (backlog /. cap_bytes_s) in
    let loss = if total > 0.0 then Float.min 1.0 (dropped /. total) else 0.0 in
    t.util.(qi) <-
      (if cap_bytes_s *. tick_s > 0.0 then
         Float.min 1.0 (drained /. (cap_bytes_s *. tick_s))
       else 0.0);
    t.queue_delay.(qi) <- queue_delay;
    t.loss.(qi) <- loss;
    t.offered_bps.(qi) <- arrived *. 8.0 /. tick_s;
    (* 3. Hybrid coupling: the packet path on this link sees the fluid
       queue as added delay and loss pressure. *)
    if t.cfg.fidelity = Hybrid && up then
      Plink.set_background t.plinks.(li) ~dir:(qi mod 2) ~delay:queue_delay
        ~loss
  done

let install ~under cfg =
  if Time.compare cfg.tick Time.zero <= 0 then
    invalid_arg "Fluid.install: tick must be positive";
  (match Workload.validate cfg.workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fluid.install: " ^ e));
  let graph = Underlay.graph under in
  let links = Array.of_list (Graph.links graph) in
  let nq = 2 * Array.length links in
  let slot_queue = Array.make (Graph.slot_count graph) 0 in
  for u = 0 to Graph.node_count graph - 1 do
    for s = Graph.first_slot graph u to Graph.first_slot graph (u + 1) - 1 do
      slot_queue.(s) <-
        (2 * Graph.slot_link graph s) + dir_of u (Graph.slot_target graph s)
    done
  done;
  let t =
    {
      cfg;
      under;
      graph;
      stream = Workload.create cfg.workload ~nodes:(Graph.node_count graph);
      links;
      plinks = Array.map (fun (l : Graph.link) -> Underlay.plink under l.a l.b) links;
      slot_queue;
      backlog = Array.make nq 0.0;
      inflow = Array.make nq 0.0;
      util = Array.make nq 0.0;
      loss = Array.make nq 0.0;
      offered_bps = Array.make nq 0.0;
      queue_delay = Array.make nq Time.zero;
      path = Array.make (Graph.node_count graph + 1) 0;
      sums = { offered = 0.0; drained = 0.0; dropped = 0.0 };
      flows = 0;
      ticks = 0;
      stopped = false;
    }
  in
  if cfg.fidelity <> Packet then
    Engine.every (Underlay.engine under) cfg.tick (fun () ->
        if not t.stopped then begin
          fold t;
          t.ticks <- t.ticks + 1
        end;
        not t.stopped);
  t

let totals t =
  {
    flows = t.flows;
    offered_bytes = t.sums.offered;
    drained_bytes = t.sums.drained;
    dropped_bytes = t.sums.dropped;
    backlog_bytes = Array.fold_left ( +. ) 0.0 t.backlog;
  }

let load t qi =
  {
    util = t.util.(qi);
    queue_delay = t.queue_delay.(qi);
    loss = t.loss.(qi);
    offered_bps = t.offered_bps.(qi);
  }

let link_load t ~a ~b =
  let qi = queue_to t a b in
  if qi < 0 then raise Not_found else load t qi

let ticks t = t.ticks

let to_json t =
  let tot = totals t in
  let per_link =
    List.concat
      (List.mapi
         (fun li (l : Graph.link) ->
           List.map
             (fun d ->
               let qi = (2 * li) + d in
               let last = load t qi in
               (* Queue [2 li + d] runs min -> max for d = 0 ([dir_of]),
                  whichever end the link lists first. *)
               let lo = min l.Graph.a l.Graph.b and hi = max l.Graph.a l.Graph.b in
               let u, v = if d = 0 then (lo, hi) else (hi, lo) in
               Json.Obj
                 [
                   ("from", Json.Str (Graph.name t.graph u));
                   ("to", Json.Str (Graph.name t.graph v));
                   ("util", Json.Num last.util);
                   ("queue_delay_ms", Json.Num (Time.to_ms_f last.queue_delay));
                   ("loss", Json.Num last.loss);
                   ("offered_bps", Json.Num last.offered_bps);
                   ("backlog_bytes", Json.Num t.backlog.(qi));
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
