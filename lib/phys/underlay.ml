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

(* Route recomputation's working memory, reused by every recompute. *)
type spf = {
  igp : int array;  (* igp.(s) = the IGP weight of slot [s]'s link *)
  weights : int array;  (* this recompute's weight of slot [s] *)
  dist : int array;  (* one source's shortest-path tree *)
  prev : int array;
  scratch : Graph.scratch;  (* the Dijkstra heap *)
}

type t = {
  engine : Engine.t;
  graph : Graph.t;
  pnodes : Pnode.t array;
  (* plinks.(s) = the physical link behind adjacency slot [s]
     ([Graph.first_slot]); a link's two slots share one plink.  A link's
     state is its plink's ([Plink.is_up]); [set_link_state] is the only
     writer. *)
  plinks : Plink.t array;
  (* hop.(s) = the neighbour slot [s] leads to: [Graph.slot_target],
     kept here because every packet hop reads it. *)
  hop : int array;
  (* nh.(from * n + dst) = the slot out of [from] on the current shortest
     path to [dst], or -1 when there is none ([from = dst], or
     unreachable).  Ignores link state: where a cut link is the only path
     left the route through it stands.  Refilled in place by
     [recompute_routes]. *)
  nh : int array;
  (* fwd.(dst * n + from) = nh's (from, dst) slot when its link is up,
     else -1 (the packet would blackhole): the packet path's one load.
     Destination-major, the transpose of [nh]: every hop of one packet or
     fluid flow reads the same row [dst].  Refilled in place on every
     route recomputation, which every link or node flip triggers. *)
  fwd : int array;
  spf : spf;
  mutable subscribers : (event -> unit) list;
  mutable blackholed : int;
}

(* Node [i]'s address is [addr_base + i]: 198.32.154.(10+i), running on
   into 198.32.155.x past .255 (the paper's example block). *)
let addr_base = Addr.of_octets 198 32 154 10

(* Resolve [v]'s entry in the row of [nh] at [base], [src]'s, from
   [src]'s shortest-path tree [prev]: towards [v] the packet leaves by
   the slot to [v] itself when [v]'s parent is [src], else by the
   parent's.  Memoised in the row, so a row costs O(n) rather than one
   prev-chain walk per destination.  -2 marks an entry not yet
   resolved. *)
let rec resolve graph nh prev base src v =
  let s = nh.(base + v) in
  if s <> -2 then s
  else begin
    let p = prev.(v) in
    let s =
      if p < 0 then -1
      else if p = src then Graph.find_slot graph src v
      else resolve graph nh prev base src p
    in
    nh.(base + v) <- s;
    s
  end

(* Per-packet destination resolve: the node id is the address's offset
   from [addr_base], or -1 for an address that names no node. *)
let node_id_of_dst t a =
  let i = Addr.to_int a - Addr.to_int addr_base in
  if i >= 0 && i < Array.length t.pnodes then i else -1

(* Every slot's weight is computed once, then each source's tree comes
   from the shared int-array Dijkstra into the reused [dist]/[prev]. *)
let recompute_routes t =
  let g = t.graph and spf = t.spf in
  let n = Array.length t.pnodes in
  for u = 0 to n - 1 do
    let u_up = Pnode.is_up t.pnodes.(u) in
    for s = Graph.first_slot g u to Graph.first_slot g (u + 1) - 1 do
      (* A link into a crashed machine is as unusable as a cut fiber. *)
      spf.weights.(s) <-
        (if u_up && Plink.is_up t.plinks.(s)
            && Pnode.is_up t.pnodes.(t.hop.(s))
         then spf.igp.(s)
         else 100_000_000)
    done
  done;
  for src = 0 to n - 1 do
    Graph.dijkstra_into g spf.scratch ~weights:spf.weights ~dist:spf.dist
      ~prev:spf.prev src;
    let base = src * n in
    Array.fill t.nh base n (-2);
    t.nh.(base + src) <- -1;
    for v = 0 to n - 1 do
      ignore (resolve g t.nh spf.prev base src v)
    done
  done;
  (* The forwarding table: [nh]'s slot where its link is up. *)
  for dst = 0 to n - 1 do
    let row = dst * n in
    for from = 0 to n - 1 do
      let s = t.nh.((from * n) + dst) in
      t.fwd.(row + from) <- (if s >= 0 && Plink.is_up t.plinks.(s) then s else -1)
    done
  done

let rec create ~engine ~rng ~graph
    ?(profile = fun _ -> dedicated_profile ~speed_ghz:Calibration.reference_ghz)
    () =
  let n = Graph.node_count graph in
  let pnodes =
    Array.init n (fun i ->
        let p = profile i in
        let cpu =
          Cpu.create ~engine ~rng:(Vini_std.Rng.split rng)
            ~speed_ghz:p.speed_ghz ~contention:p.contention
        in
        Pnode.create ~engine ~rng:(Vini_std.Rng.split rng) ~id:i
          ~name:(Graph.name graph i) ~addr:(Addr.add addr_base i) ~cpu ())
  in
  let links =
    Array.map
      (fun (l : Graph.link) ->
        ( l,
          Plink.create ~engine ~rng:(Vini_std.Rng.split rng)
            ~name:
              (Printf.sprintf "plink.%s-%s" (Graph.name graph l.a)
                 (Graph.name graph l.b))
            ~bandwidth_bps:l.bandwidth_bps ~delay:l.delay ~loss:l.loss () ))
      (Array.of_list (Graph.links graph))
  in
  let slots = Graph.slot_count graph in
  let t =
    {
      engine;
      graph;
      pnodes;
      plinks = Array.init slots (fun s -> snd links.(Graph.slot_link graph s));
      hop = Array.init slots (Graph.slot_target graph);
      nh = Array.make (n * n) (-1);
      fwd = Array.make (n * n) (-1);
      spf =
        {
          igp =
            Array.init slots (fun s ->
                (fst links.(Graph.slot_link graph s)).weight);
          weights = Array.make slots 0;
          dist = Array.make n 0;
          prev = Array.make n 0;
          scratch = Graph.scratch graph;
        };
      subscribers = [];
      blackholed = 0;
    }
  in
  recompute_routes t;
  Array.iter (fun p -> Pnode.set_tx p (fun pkt -> originate t p pkt)) pnodes;
  t

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
      let s = t.fwd.((dst_id * Array.length t.pnodes) + nid) in
      if s < 0 then t.blackholed <- t.blackholed + 1
      else
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
            let nh = t.hop.(s) in
            let dir = if nid < nh then 0 else 1 in
            Plink.transmit t.plinks.(s) ~dir pkt ~deliver:(fun pkt ->
                arrive t nh pkt)
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
let addr t i = Pnode.addr t.pnodes.(i)
let nodes t = Array.to_list t.pnodes

let plink t a b =
  let s = Graph.find_slot t.graph a b in
  if s < 0 then raise Not_found else t.plinks.(s)

let set_link_state t a b up =
  let plink = plink t a b in
  if Plink.is_up plink <> up then begin
    Plink.set_up plink up;
    (* Masking: reroute, which also rebuilds the forwarding table. *)
    recompute_routes t;
    let ev = if up then Link_up (a, b) else Link_down (a, b) in
    List.iter (fun f -> f ev) t.subscribers
  end

let link_is_up t a b =
  match plink t a b with p -> Plink.is_up p | exception Not_found -> false

let set_node_state t i up =
  let node = t.pnodes.(i) in
  if Pnode.is_up node <> up then begin
    if up then Pnode.reboot node else Pnode.crash node;
    (* Incident links become unusable/usable, so the underlay reroutes
       around (or back through) the machine. *)
    recompute_routes t;
    let ev = if up then Node_up i else Node_down i in
    List.iter (fun f -> f ev) t.subscribers
  end

let node_is_up t i = Pnode.is_up t.pnodes.(i)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

(* The cell [row * n + col] of an n-by-n table; checking [col] leaves
   the array's own bounds check to catch a bad [row]. *)
let cell t ~row ~col =
  let n = Array.length t.pnodes in
  if col < 0 || col >= n then invalid_arg "Underlay: node out of range";
  (row * n) + col
[@@inline]

let next_hop t ~from ~dst =
  let s = t.nh.(cell t ~row:from ~col:dst) in
  if s < 0 then None else Some t.hop.(s)

let forward_slot t ~from ~dst = t.fwd.(cell t ~row:dst ~col:from) [@@inline]

let blackholed t = t.blackholed
