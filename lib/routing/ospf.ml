module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Prefix = Vini_net.Prefix

type hello = { h_rid : int; h_seen : int list }

type lsa = {
  origin : int;
  seq : int;
  links : (int * int) list;
  prefixes : Prefix.t list;
}

type msg = Hello of hello | Flood of lsa list | Ack of (int * int) list
type Packet.control += Msg of msg

let lsa_size l = 20 + (12 * List.length l.links) + (8 * List.length l.prefixes)

let msg_size = function
  | Hello h -> 44 + (4 * List.length h.h_seen)
  | Flood lsas -> 24 + List.fold_left (fun acc l -> acc + lsa_size l) 0 lsas
  | Ack acks -> 20 + (8 * List.length acks)

type config = {
  router_id : int;
  hello_interval : Time.t;
  dead_interval : Time.t;
  spf_delay : Time.t;
  lsa_refresh : Time.t;
  rxmt_interval : Time.t;   (* unacked-LSA retransmission period *)
  local_prefixes : Prefix.t list;
}

let default_config ~router_id ~local_prefixes =
  {
    router_id;
    hello_interval = Time.sec 5;
    dead_interval = Time.sec 10;
    spf_delay = Time.ms 200;
    lsa_refresh = Time.sec 1800;
    rxmt_interval = Time.sec 2;
    local_prefixes;
  }

type nbr = {
  iface : Io.iface;
  mutable rid : int option;
  mutable full : bool;
  mutable dead_timer : Engine.handle option;
  (* Reliable flooding: LSAs sent to this neighbour and not yet
     acknowledged, keyed by origin (only the newest per origin matters). *)
  retx : (int, lsa) Hashtbl.t;
}

type t = {
  engine : Engine.t;
  rng : Vini_std.Rng.t;
  config : config;
  nbrs : nbr list;              (* one per interface, point-to-point *)
  rib : Rib.t;
  lsdb : (int, lsa) Hashtbl.t;  (* origin -> newest LSA *)
  mutable own_seq : int;
  mutable spf_pending : bool;
  mutable spf_runs : int;
  mutable messages_sent : int;
  mutable stopped : bool;
}

let create ~engine ~rng ~config ~ifaces ~rib =
  {
    engine;
    rng;
    config;
    nbrs =
      List.map
        (fun iface ->
          { iface; rid = None; full = false; dead_timer = None;
            retx = Hashtbl.create 8 })
        ifaces;
    rib;
    lsdb = Hashtbl.create 16;
    own_seq = 0;
    spf_pending = false;
    spf_runs = 0;
    messages_sent = 0;
    stopped = false;
  }

let send t (iface : Io.iface) msg =
  if not t.stopped then begin
    t.messages_sent <- t.messages_sent + 1;
    iface.Io.send (Msg msg) ~size:(msg_size msg)
  end

(* --- SPF ------------------------------------------------------------- *)

let rec schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    ignore
      (Engine.after t.engine t.config.spf_delay (fun () ->
           t.spf_pending <- false;
           if not t.stopped then run_spf t))
  end

and run_spf t =
  t.spf_runs <- t.spf_runs + 1;
  let self = t.config.router_id in
  (* Edge rid1->rid2 exists iff both directions are advertised. *)
  let cost_of a b =
    match (Hashtbl.find_opt t.lsdb a, Hashtbl.find_opt t.lsdb b) with
    | Some la, Some lb ->
        if List.mem_assoc b la.links && List.mem_assoc a lb.links then
          Some (List.assoc b la.links)
        else None
    | _ -> None
  in
  let dist = Hashtbl.create 16 in
  let first_hop = Hashtbl.create 16 in
  let heap =
    Vini_std.Heap.create ~cmp:(fun (d1, r1, _) (d2, r2, _) ->
        let c = compare d1 d2 in
        if c <> 0 then c else compare r1 r2)
  in
  Hashtbl.replace dist self 0;
  Vini_std.Heap.push heap (0, self, None);
  let rec drain () =
    match Vini_std.Heap.pop heap with
    | None -> ()
    | Some (d, rid, hop) ->
        let current = Hashtbl.find_opt dist rid in
        if current = Some d && not (Hashtbl.mem first_hop rid && rid <> self)
        then begin
          if rid <> self then
            Hashtbl.replace first_hop rid (Option.get hop);
          (match Hashtbl.find_opt t.lsdb rid with
          | None -> ()
          | Some lsa ->
              List.iter
                (fun (nbr_rid, _) ->
                  match cost_of rid nbr_rid with
                  | None -> ()
                  | Some c ->
                      let nd = d + c in
                      let improves =
                        match Hashtbl.find_opt dist nbr_rid with
                        | None -> true
                        | Some old -> nd < old
                      in
                      if improves then begin
                        Hashtbl.replace dist nbr_rid nd;
                        let hop' =
                          if rid = self then Some nbr_rid else hop
                        in
                        Vini_std.Heap.push heap (nd, nbr_rid, hop')
                      end)
                lsa.links);
          drain ()
        end
        else drain ()
  in
  drain ();
  (* Map first-hop router ids to interfaces. *)
  let iface_of_rid rid =
    List.find_map
      (fun n -> if n.full && n.rid = Some rid then Some n.iface else None)
      t.nbrs
  in
  let routes = Hashtbl.create 32 in
  Hashtbl.iter
    (fun rid d ->
      if rid <> self then
        match Hashtbl.find_opt first_hop rid with
        | None -> ()
        | Some hop_rid -> (
            match (iface_of_rid hop_rid, Hashtbl.find_opt t.lsdb rid) with
            | Some iface, Some lsa ->
                List.iter
                  (fun p ->
                    let candidate =
                      {
                        Rib.next_hop = iface.Io.remote;
                        metric = d;
                        proto = Rib.Ospf;
                      }
                    in
                    match Hashtbl.find_opt routes p with
                    | Some (existing : Rib.route) when existing.metric <= d ->
                        ()
                    | Some _ | None -> Hashtbl.replace routes p candidate)
                  lsa.prefixes
            | _ -> ()))
    dist;
  let route_list =
    List.sort
      (fun (p1, _) (p2, _) -> Prefix.compare p1 p2)
      (Hashtbl.fold (fun p r acc -> (p, r) :: acc) routes [])
  in
  Rib.replace_all t.rib ~proto:Rib.Ospf route_list

(* --- LSA origination and flooding ------------------------------------ *)

and originate_lsa t =
  t.own_seq <- t.own_seq + 1;
  let links =
    List.filter_map
      (fun n ->
        match (n.full, n.rid) with
        | true, Some rid -> Some (rid, n.iface.Io.cost)
        | _ -> None)
      t.nbrs
  in
  let lsa =
    {
      origin = t.config.router_id;
      seq = t.own_seq;
      links;
      prefixes = t.config.local_prefixes;
    }
  in
  Hashtbl.replace t.lsdb t.config.router_id lsa;
  flood t ~except:None [ lsa ];
  schedule_spf t

and send_lsas t n lsas =
  (* Register for retransmission until the neighbour acknowledges. *)
  List.iter (fun lsa -> Hashtbl.replace n.retx lsa.origin lsa) lsas;
  send t n.iface (Flood lsas)

and flood t ~except lsas =
  if lsas <> [] then
    List.iter
      (fun n ->
        let skip =
          match except with
          | Some ifindex -> n.iface.Io.ifindex = ifindex
          | None -> false
        in
        if n.full && not skip then send_lsas t n lsas)
      t.nbrs

(* --- Hello protocol --------------------------------------------------- *)

let neighbor_down t n =
  if n.full || n.rid <> None then begin
    n.full <- false;
    n.rid <- None;
    Hashtbl.reset n.retx;
    (match n.dead_timer with Some h -> Engine.cancel h | None -> ());
    n.dead_timer <- None;
    originate_lsa t
  end

let reset_dead_timer t n =
  (match n.dead_timer with Some h -> Engine.cancel h | None -> ());
  n.dead_timer <-
    Some (Engine.after t.engine t.config.dead_interval (fun () ->
              n.dead_timer <- None;
              neighbor_down t n))

let hello_for t n =
  Hello { h_rid = t.config.router_id; h_seen = Option.to_list n.rid }

let adjacency_up t n rid =
  n.rid <- Some rid;
  if not n.full then begin
    n.full <- true;
    (* Simplified database exchange: push our whole LSDB to the new
       neighbour so both sides converge on the same view. *)
    let all = Hashtbl.fold (fun _ l acc -> l :: acc) t.lsdb [] in
    if all <> [] then send_lsas t n all;
    originate_lsa t
  end

let handle_hello t ~ifindex h =
  match List.find_opt (fun n -> n.iface.Io.ifindex = ifindex) t.nbrs with
  | None -> ()
  | Some n ->
      let two_way = List.mem t.config.router_id h.h_seen in
      reset_dead_timer t n;
      (* A hello that no longer lists us, from a neighbour we were fully
         adjacent with, means the neighbour restarted and lost its state:
         fall back from Full (RFC 2328 §10.5's 1-Way transition) so the
         database exchange re-runs when two-way comes back, and answer
         promptly to speed that up. *)
      if (not two_way) && n.full then begin
        n.full <- false;
        send t n.iface (hello_for t n)
      end
      else if n.rid <> Some h.h_rid then begin
        (* New or changed neighbour: answer promptly so the two-way check
           completes within one hello interval. *)
        n.rid <- Some h.h_rid;
        send t n.iface (hello_for t n)
      end;
      if two_way && not n.full then adjacency_up t n h.h_rid

let newer a b = a.seq > b.seq

let handle_flood t ~ifindex lsas =
  (* Acknowledge everything received, duplicates included (OSPF-style
     implicit/explicit acks), so the sender stops retransmitting. *)
  (match List.find_opt (fun n -> n.iface.Io.ifindex = ifindex) t.nbrs with
  | Some n -> send t n.iface (Ack (List.map (fun l -> (l.origin, l.seq)) lsas))
  | None -> ());
  let fresh =
    List.filter
      (fun lsa ->
        match Hashtbl.find_opt t.lsdb lsa.origin with
        | Some have when not (newer lsa have) ->
            (* A fully adjacent neighbour flooding a strictly older copy
               has an out-of-date database — it restarted and lost state
               faster than the dead interval could notice.  Refuting one
               LSA is not enough: resync it with a full push.  (Equal-seq
               duplicates take the [false] branch without a push.) *)
            if newer have lsa then begin
              match
                List.find_opt (fun n -> n.iface.Io.ifindex = ifindex) t.nbrs
              with
              | Some n when n.full ->
                  let all = Hashtbl.fold (fun _ l acc -> l :: acc) t.lsdb [] in
                  send_lsas t n all
              | Some _ | None -> ()
            end;
            false
        | Some _ | None ->
            (* Never accept someone else's claim about our own LSA with a
               higher sequence: re-originate above it instead. *)
            if lsa.origin = t.config.router_id then begin
              if lsa.seq >= t.own_seq then begin
                t.own_seq <- lsa.seq;
                originate_lsa t
              end;
              false
            end
            else begin
              Hashtbl.replace t.lsdb lsa.origin lsa;
              true
            end)
      lsas
  in
  if fresh <> [] then begin
    flood t ~except:(Some ifindex) fresh;
    schedule_spf t
  end

let handle_ack t ~ifindex acks =
  match List.find_opt (fun n -> n.iface.Io.ifindex = ifindex) t.nbrs with
  | None -> ()
  | Some n ->
      List.iter
        (fun (origin, seq) ->
          match Hashtbl.find_opt n.retx origin with
          | Some pending when pending.seq <= seq -> Hashtbl.remove n.retx origin
          | Some _ | None -> ())
        acks

let receive t ~ifindex msg =
  if not t.stopped then
    match msg with
    | Msg (Hello h) -> handle_hello t ~ifindex h
    | Msg (Flood lsas) -> handle_flood t ~ifindex lsas
    | Msg (Ack acks) -> handle_ack t ~ifindex acks
    | _ -> ()

let start t =
  (* De-phase interfaces so hellos are not synchronised across the net. *)
  List.iter
    (fun n ->
      let jitter =
        Time.of_sec_f
          (Vini_std.Rng.float t.rng
             (Time.to_sec_f t.config.hello_interval /. 2.0))
      in
      ignore
        (Engine.after t.engine jitter (fun () ->
             if not t.stopped then begin
               send t n.iface (hello_for t n);
               Engine.every t.engine ~jitter:(Time.ms 100)
                 t.config.hello_interval (fun () ->
                   send t n.iface (hello_for t n);
                   not t.stopped)
             end)))
    t.nbrs;
  (* Periodic LSA refresh. *)
  Engine.every t.engine t.config.lsa_refresh (fun () ->
      if not t.stopped then originate_lsa t;
      not t.stopped);
  (* Reliable flooding: retransmit unacknowledged LSAs. *)
  Engine.every t.engine ~jitter:(Time.ms 200) t.config.rxmt_interval
    (fun () ->
      List.iter
        (fun n ->
          if n.full && Hashtbl.length n.retx > 0 then
            send t n.iface
              (Flood (Hashtbl.fold (fun _ l acc -> l :: acc) n.retx [])))
        t.nbrs;
      not t.stopped);
  (* Advertise our stub prefixes even before any adjacency forms. *)
  originate_lsa t

(* A stopped instance goes permanently silent: timers unwind, messages are
   neither sent nor accepted, and the RIB is no longer touched.  Used when
   the hosting process crashes; recovery builds a fresh instance. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun n ->
        (match n.dead_timer with Some h -> Engine.cancel h | None -> ());
        n.dead_timer <- None;
        Hashtbl.reset n.retx)
      t.nbrs
  end

let reoriginate t = originate_lsa t

let full_neighbors t =
  List.filter_map
    (fun n ->
      match (n.full, n.rid) with
      | true, Some rid -> Some (n.iface.Io.ifindex, rid)
      | _ -> None)
    t.nbrs

let lsdb t =
  List.sort
    (fun a b -> compare a.origin b.origin)
    (Hashtbl.fold (fun _ l acc -> l :: acc) t.lsdb [])

let spf_runs t = t.spf_runs
let messages_sent t = t.messages_sent
