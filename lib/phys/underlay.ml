module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Graph = Vini_topo.Graph
module Addr = Vini_net.Addr

type event =
  | Link_down of Graph.node_id * Graph.node_id
  | Link_up of Graph.node_id * Graph.node_id
  | Node_down of Graph.node_id
  | Node_up of Graph.node_id

type node_profile = { speed_ghz : float; contention : Cpu.contention }

let dedicated_profile ~speed_ghz = { speed_ghz; contention = Cpu.Dedicated }

let planetlab_profile ~speed_ghz =
  {
    speed_ghz;
    contention =
      Cpu.Shared { active_sampler = Calibration.shared_active_slices () };
  }

type t = {
  engine : Engine.t;
  graph : Graph.t;
  pnodes : Pnode.t array;
  by_addr : (Addr.t, Pnode.t) Hashtbl.t;
  links : (int * int, Plink.t) Hashtbl.t;
  link_up : (int * int, bool) Hashtbl.t;
  mask_failures : bool;
  (* prev.(src).(v) = predecessor of v on the shortest path from src *)
  mutable prev : Graph.node_id option array array;
  (* Per-(from, dst) forwarding cache: the next hop and its plink when a
     usable (existing, administratively up) link leads that way, [None]
     when the packet would blackhole.  Rebuilt by [rebuild_fwd] on every
     route recomputation and link-state flip, so the per-packet fast path
     is two array loads instead of a prev-chain walk plus three hashtable
     probes.  Entries are preallocated; lookups allocate nothing. *)
  mutable fwd : (int * Plink.t) option array array;
  (* Dense addr → node-id table for the per-packet destination resolve.
     [addr_idx.(Addr.to_int a - addr_base)] is the node id, or -1 for a
     non-node address.  Built only when node addresses span a small range
     (the default 198.32.154/155 scheme always qualifies); [ [||] ] means
     "fall back to [by_addr]". *)
  addr_base : int;
  addr_idx : int array;
  mutable subscribers : (event -> unit) list;
  mutable blackholed : int;
}

let key a b = (min a b, max a b)

let default_addr i =
  if i < 246 then Addr.of_octets 198 32 154 (10 + i)
  else Addr.add (Addr.of_octets 198 32 155 0) (i - 246)

let weight_when_up t l =
  let up = try Hashtbl.find t.link_up (key l.Graph.a l.Graph.b) with Not_found -> true in
  (* A link into a crashed machine is as unusable as a cut fiber. *)
  let ends_up = Pnode.is_up t.pnodes.(l.Graph.a) && Pnode.is_up t.pnodes.(l.Graph.b) in
  if up && ends_up then l.Graph.weight else 100_000_000

(* prev is rooted at [from], so the next hop towards [dst] is found by
   walking back from [dst]. *)
let next_hop_of_prev prev ~from ~dst =
  if from = dst then None
  else
    let rec back v =
      match prev.(v) with
      | None -> None
      | Some p when p = from -> Some v
      | Some p -> back p
    in
    back dst

let rebuild_fwd t =
  let n = Array.length t.pnodes in
  t.fwd <-
    Array.init n (fun from ->
        Array.init n (fun dst ->
            match next_hop_of_prev t.prev.(from) ~from ~dst with
            | None -> None
            | Some nh -> (
                let k = key from nh in
                let up =
                  try Hashtbl.find t.link_up k with Not_found -> false
                in
                if not up then None
                else
                  match Hashtbl.find_opt t.links k with
                  | None -> None
                  | Some plink -> Some (nh, plink))))

(* Per-packet destination resolve: a bounds check plus one array load on
   the dense path; the hashtable only serves scattered custom [addr_of]
   schemes.  Returns -1 for addresses that name no node. *)
let node_id_of_dst t a =
  let len = Array.length t.addr_idx in
  if len > 0 then begin
    let i = Addr.to_int a - t.addr_base in
    if i >= 0 && i < len then Array.unsafe_get t.addr_idx i else -1
  end
  else
    match Hashtbl.find_opt t.by_addr a with
    | Some p -> Pnode.id p
    | None -> -1

let recompute_routes t =
  let n = Graph.node_count t.graph in
  t.prev <-
    Array.init n (fun src ->
        let _, prev = Graph.dijkstra ~weight_of:(weight_when_up t) t.graph src in
        prev);
  rebuild_fwd t

let rec create ~engine ~rng ~graph
    ?(profile = fun _ -> dedicated_profile ~speed_ghz:Calibration.reference_ghz)
    ?(addr_of = default_addr) ?(mask_failures = true) () =
  let n = Graph.node_count graph in
  let pnodes =
    Array.init n (fun i ->
        let p = profile i in
        let cpu =
          Cpu.create ~engine ~rng:(Vini_std.Rng.split rng)
            ~speed_ghz:p.speed_ghz ~contention:p.contention
        in
        Pnode.create ~engine ~rng:(Vini_std.Rng.split rng) ~id:i
          ~name:(Graph.name graph i) ~addr:(addr_of i) ~cpu ())
  in
  let by_addr = Hashtbl.create n in
  Array.iter (fun p -> Hashtbl.replace by_addr (Pnode.addr p) p) pnodes;
  let addr_base, addr_idx =
    if n = 0 then (0, [||])
    else begin
      let lo = ref max_int and hi = ref 0 in
      Array.iter
        (fun p ->
          let a = Addr.to_int (Pnode.addr p) in
          if a < !lo then lo := a;
          if a > !hi then hi := a)
        pnodes;
      let span = !hi - !lo + 1 in
      (* Custom [addr_of] schemes can scatter addresses arbitrarily; only
         densify when the table stays proportional to the node count. *)
      if span > (4 * n) + 64 then (0, [||])
      else begin
        let idx = Array.make span (-1) in
        Array.iter
          (fun p -> idx.(Addr.to_int (Pnode.addr p) - !lo) <- Pnode.id p)
          pnodes;
        (!lo, idx)
      end
    end
  in
  let links = Hashtbl.create 16 in
  let link_up = Hashtbl.create 16 in
  List.iter
    (fun (l : Graph.link) ->
      let plink =
        Plink.create ~engine ~rng:(Vini_std.Rng.split rng)
          ~name:
            (Printf.sprintf "plink.%s-%s" (Graph.name graph l.a)
               (Graph.name graph l.b))
          ~bandwidth_bps:l.bandwidth_bps ~delay:l.delay ~loss:l.loss ()
      in
      Hashtbl.replace links (key l.a l.b) plink;
      Hashtbl.replace link_up (key l.a l.b) true)
    (Graph.links graph);
  let t =
    {
      engine;
      graph;
      pnodes;
      by_addr;
      addr_base;
      addr_idx;
      links;
      link_up;
      mask_failures;
      prev = [||];
      fwd = [||];
      subscribers = [];
      blackholed = 0;
    }
  in
  recompute_routes t;
  Array.iter (fun p -> Pnode.set_tx p (fun pkt -> originate t p pkt)) pnodes;
  t

(* Routing: walk the prev-chain of the shortest-path tree rooted at the
   destination?  No — prev is rooted at each source, so the next hop from
   [from] towards [dst] is found by walking back from [dst]. *)
and next_hop_id t ~from ~dst = next_hop_of_prev t.prev.(from) ~from ~dst

(* [inline] is threaded from call sites that are in tail position of an
   event callback (plink arrivals, kernel-work continuations): it lets the
   receive-side NIC hop join the current breath.  The [originate] path
   reaches [forward] mid-callback and keeps the default. *)
and forward ?(inline = false) t nid pkt =
  let node = t.pnodes.(nid) in
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then
    Pnode.deliver_local ~inline node pkt
  else begin
    let dst_id = node_id_of_dst t pkt.Packet.dst in
    if dst_id < 0 then t.blackholed <- t.blackholed + 1
    else
        match t.fwd.(nid).(dst_id) with
        | None -> t.blackholed <- t.blackholed + 1
        | Some (nh, plink) -> (
            match Packet.decr_ttl pkt with
              | None ->
                  (* TTL expired here; notify the source.  The notice
                     inherits the dying packet's provenance so forensics
                     show the expiry on the original packet's tree. *)
                  if Vini_sim.Span.on () then
                    Vini_sim.Span.drop ~pkt:pkt.Packet.id
                      ~orig:pkt.Packet.orig ~component:(Pnode.name node)
                      ~reason:"ttl-expired" ~bytes:(Packet.size pkt) ();
                  let notice =
                    Packet.icmp ~orig:pkt.Packet.orig ~src:(Pnode.addr node)
                      ~dst:pkt.Packet.src
                      (Packet.Time_exceeded
                         { orig_src = pkt.Packet.src; orig_dst = pkt.Packet.dst })
                  in
                  originate t node notice
              | Some pkt ->
                  let dir = if nid < nh then 0 else 1 in
                  Plink.transmit plink ~dir pkt ~deliver:(fun pkt ->
                      arrive t nh pkt))
  end

and arrive t nid pkt =
  let node = t.pnodes.(nid) in
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then
    Pnode.deliver_local ~inline:true node pkt
  else Pnode.rx_overhead node pkt ~k:(fun () -> forward ~inline:true t nid pkt)

and originate t node pkt =
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then begin
    (* Loopback: deliver promptly, no NIC traversal. *)
    let engine = Pnode.engine node in
    ignore
      (Engine.at engine
         (Time.add (Engine.now engine) (Time.us 5))
         (fun () -> Ipstack.deliver (Pnode.stack node) pkt))
  end
  else forward t (Pnode.id node) pkt

let engine t = t.engine
let graph t = t.graph
let node t i = t.pnodes.(i)
let node_by_name t n = t.pnodes.(Graph.id_of_name t.graph n)
let node_of_addr t a = Hashtbl.find_opt t.by_addr a
let addr t i = Pnode.addr t.pnodes.(i)
let nodes t = Array.to_list t.pnodes

let plink t a b =
  match Hashtbl.find_opt t.links (key a b) with
  | Some l -> l
  | None -> raise Not_found

let set_link_state t a b up =
  let k = key a b in
  if not (Hashtbl.mem t.links k) then raise Not_found;
  let was = try Hashtbl.find t.link_up k with Not_found -> true in
  if was <> up then begin
    Hashtbl.replace t.link_up k up;
    Plink.set_up (Hashtbl.find t.links k) up;
    (* Masking reroutes (which rebuilds the forwarding cache); without
       masking the routes stand but the cache must still see the flip. *)
    if t.mask_failures then recompute_routes t else rebuild_fwd t;
    let ev = if up then Link_up (a, b) else Link_down (a, b) in
    List.iter (fun f -> f ev) t.subscribers
  end

let link_is_up t a b =
  match Hashtbl.find_opt t.link_up (key a b) with
  | Some up -> up
  | None -> false

let set_node_state t i up =
  let node = t.pnodes.(i) in
  if Pnode.is_up node <> up then begin
    if up then Pnode.reboot node else Pnode.crash node;
    (* Incident links become unusable/usable, so the underlay reroutes
       around (or back through) the machine when masking failures. *)
    if t.mask_failures then recompute_routes t;
    let ev = if up then Node_up i else Node_down i in
    List.iter (fun f -> f ev) t.subscribers
  end

let node_is_up t i = Pnode.is_up t.pnodes.(i)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let next_hop t ~from ~dst = next_hop_id t ~from ~dst
let blackholed t = t.blackholed
