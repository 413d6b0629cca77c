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
  (* adj.(u) = (neighbour, plink) for every link at [u], by neighbour id.
     A link's state is its plink's ([Plink.is_up]); [set_link_state] is
     the only writer. *)
  adj : (int * Plink.t) array array;
  mask_failures : bool;
  (* nh.(from).(dst) = next hop on the current shortest path from [from]
     to [dst], or -1 when there is none ([from = dst], or unreachable).
     Ignores link state: under exposure a route through a cut link
     stands.  Rows are refilled in place by [recompute_routes]. *)
  nh : int array array;
  (* Per-(from, dst) forwarding cache: [Some (nh, plink)] when the next
     hop exists and its link is up, [None] when the packet would
     blackhole.  Refilled in place on every route recomputation and
     link-state flip from [cells], one preallocated [Some] per adjacency
     slot, so neither a refill nor a per-packet lookup allocates. *)
  fwd : (int * Plink.t) option array array;
  cells : (int * Plink.t) option array array;  (* Some adj.(u).(k) *)
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

let default_addr i =
  if i < 246 then Addr.of_octets 198 32 154 (10 + i)
  else Addr.add (Addr.of_octets 198 32 155 0) (i - 246)

(* Index of neighbour [v] in [adj.(u)], or -1. *)
let slot adj u v =
  let row = adj.(u) in
  let rec go k =
    if k = Array.length row then -1
    else if fst row.(k) = v then k
    else go (k + 1)
  in
  go 0

let weight_when_up t l =
  let a = l.Graph.a and b = l.Graph.b in
  let up = Plink.is_up (snd t.adj.(a).(slot t.adj a b)) in
  (* A link into a crashed machine is as unusable as a cut fiber. *)
  let ends_up = Pnode.is_up t.pnodes.(a) && Pnode.is_up t.pnodes.(b) in
  if up && ends_up then l.Graph.weight else 100_000_000

(* Fill [row] with the next hops from [src] out of its shortest-path tree
   [prev]: towards [v] it is [v] itself when [v]'s parent is [src], else
   the parent's next hop.  Memoised in the row, so a row costs O(n)
   rather than one prev-chain walk per destination.  -2 marks a
   destination not yet resolved. *)
let fill_row row prev src =
  Array.fill row 0 (Array.length row) (-2);
  row.(src) <- -1;
  let rec resolve v =
    let h = row.(v) in
    if h <> -2 then h
    else begin
      let h =
        match prev.(v) with
        | None -> -1
        | Some p -> if p = src then v else resolve p
      in
      row.(v) <- h;
      h
    end
  in
  for v = 0 to Array.length row - 1 do
    ignore (resolve v)
  done

let rebuild_fwd t =
  Array.iteri
    (fun from row ->
      let fwd = t.fwd.(from) in
      Array.iteri
        (fun dst h ->
          fwd.(dst) <-
            (if h < 0 then None
             else
               match t.cells.(from).(slot t.adj from h) with
               | Some (_, plink) as cell when Plink.is_up plink -> cell
               | _ -> None))
        row)
    t.nh

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
  Array.iteri
    (fun src row ->
      let _, prev = Graph.dijkstra ~weight_of:(weight_when_up t) t.graph src in
      fill_row row prev src)
    t.nh;
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
  let adj = Array.make n [] in
  List.iter
    (fun (l : Graph.link) ->
      let plink =
        Plink.create ~engine ~rng:(Vini_std.Rng.split rng)
          ~name:
            (Printf.sprintf "plink.%s-%s" (Graph.name graph l.a)
               (Graph.name graph l.b))
          ~bandwidth_bps:l.bandwidth_bps ~delay:l.delay ~loss:l.loss ()
      in
      adj.(l.a) <- (l.b, plink) :: adj.(l.a);
      adj.(l.b) <- (l.a, plink) :: adj.(l.b))
    (Graph.links graph);
  let adj =
    Array.map
      (fun l -> Array.of_list (List.sort (fun (x, _) (y, _) -> compare x y) l))
      adj
  in
  let t =
    {
      engine;
      graph;
      pnodes;
      by_addr;
      addr_base;
      addr_idx;
      adj;
      mask_failures;
      nh = Array.make_matrix n n (-1);
      fwd = Array.make_matrix n n None;
      cells = Array.map (Array.map (fun cell -> Some cell)) adj;
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
  let k = if a >= 0 && a < Array.length t.adj then slot t.adj a b else -1 in
  if k < 0 then raise Not_found else snd t.adj.(a).(k)

let set_link_state t a b up =
  let plink = plink t a b in
  if Plink.is_up plink <> up then begin
    Plink.set_up plink up;
    (* Masking reroutes (which rebuilds the forwarding cache); without
       masking the routes stand but the cache must still see the flip. *)
    if t.mask_failures then recompute_routes t else rebuild_fwd t;
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
       around (or back through) the machine when masking failures. *)
    if t.mask_failures then recompute_routes t;
    let ev = if up then Node_up i else Node_down i in
    List.iter (fun f -> f ev) t.subscribers
  end

let node_is_up t i = Pnode.is_up t.pnodes.(i)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let next_hop t ~from ~dst =
  let h = t.nh.(from).(dst) in
  if h < 0 then None else Some h

let forward_hop t ~from ~dst =
  match t.fwd.(from).(dst) with Some (h, _) -> h | None -> -1

let blackholed t = t.blackholed
