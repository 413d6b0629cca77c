module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Prefix = Vini_net.Prefix

type path = {
  origin_asn : int;
  as_path : int list;
  next_hop : Vini_net.Addr.t;
  local_pref : int;
  med : int;
}

type update = {
  withdraw : Prefix.t list;
  announce : (Prefix.t * path) list;
}

type msg = Open of { asn : int; rid : int } | Keepalive | Update of update
type Packet.control += Msg of msg

let msg_size = function
  | Open _ -> 29
  | Keepalive -> 19
  | Update u ->
      23
      + (5 * List.length u.withdraw)
      + List.fold_left
          (fun acc (_, p) -> acc + 12 + (2 * List.length p.as_path))
          0 u.announce

type peer_kind = [ `Ebgp | `Ibgp ]
type peer_id = int

type config = {
  asn : int;
  rid : int;
  hold_time : Time.t;
  mrai : Time.t;
  reconnect : Time.t;
  next_hop_self : Vini_net.Addr.t;
  originate : Prefix.t list;
}

let default_config ~asn ~rid ~next_hop_self ~originate =
  {
    asn;
    rid;
    hold_time = Time.sec 90;
    mrai = Time.ms 300;
    reconnect = Time.sec 10;
    next_hop_self;
    originate;
  }

module Pmap = Map.Make (Prefix)

type change = Announce of path | Withdrawn

type peer = {
  pid : peer_id;
  pname : string;
  kind : peer_kind;
  chan : Rchan.t;
  export : Prefix.t -> bool;
  import : Prefix.t -> path -> bool;
  mutable established : bool;
  mutable import_rejected : int;
  mutable adj_in : path Pmap.t;
  mutable hold_timer : Engine.handle option;
  mutable pending : change Pmap.t;   (* MRAI batch *)
  mutable mrai_timer : Engine.handle option;
}

type t = {
  engine : Engine.t;
  config : config;
  rib : Rib.t option;
  mutable peers : peer list;
  mutable originated : Prefix.t list;
  mutable loc : (path * peer_id option) Pmap.t;  (* best + learned-from *)
  mutable session_resets : int;
  mutable started : bool;
}

let create ~engine ~config ?rib () =
  {
    engine;
    config;
    rib;
    peers = [];
    originated = config.originate;
    loc = Pmap.empty;
    session_resets = 0;
    started = false;
  }

(* Decision process: local_pref desc, AS-path length asc, MED asc,
   eBGP-learned over iBGP.  Peer-id tie-break happens in [decide]. *)
let compare_paths a b =
  let c = compare b.local_pref a.local_pref in
  if c <> 0 then c
  else
    let c = compare (List.length a.as_path) (List.length b.as_path) in
    if c <> 0 then c
    else
      let c = compare a.med b.med in
      if c <> 0 then c
      else 0

let self_path t =
  {
    origin_asn = t.config.asn;
    as_path = [];
    next_hop = t.config.next_hop_self;
    local_pref = 1000;
    med = 0;
  }

let find_peer t pid = List.find_opt (fun p -> p.pid = pid) t.peers

let post peer m =
  Rchan.post peer.chan (Msg m) ~size:(msg_size m)

let flush_pending peer =
  if peer.established && not (Pmap.is_empty peer.pending) then begin
    let withdraw, announce =
      Pmap.fold
        (fun prefix change (w, a) ->
          match change with
          | Withdrawn -> (prefix :: w, a)
          | Announce p -> (w, (prefix, p) :: a))
        peer.pending ([], [])
    in
    peer.pending <- Pmap.empty;
    post peer (Update { withdraw; announce })
  end
  else peer.pending <- Pmap.empty

(* Queue a change for a peer, honouring MRAI batching. *)
let enqueue_change t peer prefix change =
  peer.pending <- Pmap.add prefix change peer.pending;
  if peer.mrai_timer = None then
    peer.mrai_timer <-
      Some
        (Engine.after t.engine t.config.mrai (fun () ->
             peer.mrai_timer <- None;
             flush_pending peer))

let exported t peer ~learned_from prefix path =
  if not (peer.export prefix) then None
  else
    match learned_from with
    | Some pid when pid = peer.pid -> None (* never echo back *)
    | learned -> (
        let from_kind =
          match learned with
          | None -> `Local
          | Some pid -> (
              match find_peer t pid with
              | Some p -> (p.kind :> [ `Ebgp | `Ibgp | `Local ])
              | None -> `Local)
        in
        match (from_kind, peer.kind) with
        | `Ibgp, `Ibgp -> None (* classic full-mesh rule *)
        | (`Ebgp | `Ibgp | `Local), `Ebgp ->
            Some
              {
                path with
                as_path = t.config.asn :: path.as_path;
                next_hop = t.config.next_hop_self;
                local_pref = 100;
              }
        | (`Ebgp | `Local), `Ibgp -> Some path)

let advertise_change t prefix =
  let entry = Pmap.find_opt prefix t.loc in
  List.iter
    (fun peer ->
      if peer.established then
        match entry with
        | Some (path, learned_from) -> (
            match exported t peer ~learned_from prefix path with
            | Some p -> enqueue_change t peer prefix (Announce p)
            | None -> enqueue_change t peer prefix Withdrawn)
        | None -> enqueue_change t peer prefix Withdrawn)
    t.peers

let install_rib t prefix entry =
  match t.rib with
  | None -> ()
  | Some rib -> (
      match entry with
      | Some (path, learned_from) ->
          let proto =
            match learned_from with
            | None -> Rib.Static (* locally originated: do not install *)
            | Some pid -> (
                match find_peer t pid with
                | Some p when p.kind = `Ebgp -> Rib.Ebgp
                | Some _ -> Rib.Ibgp
                | None -> Rib.Ibgp)
          in
          if learned_from <> None then
            Rib.update rib ~proto prefix
              (Some { Rib.next_hop = path.next_hop; metric = 0; proto })
      | None ->
          Rib.update rib ~proto:Rib.Ebgp prefix None;
          Rib.update rib ~proto:Rib.Ibgp prefix None)

let decide t prefix =
  let candidates =
    (if List.exists (Prefix.equal prefix) t.originated then
       [ (self_path t, None) ]
     else [])
    @ List.filter_map
        (fun peer ->
          match Pmap.find_opt prefix peer.adj_in with
          | Some p when peer.established -> Some (p, Some peer.pid)
          | Some _ | None -> None)
        t.peers
  in
  let best =
    match candidates with
    | [] -> None
    | _ ->
        let kind_rank = function
          | None -> 0 (* local *)
          | Some pid -> (
              match find_peer t pid with
              | Some p when p.kind = `Ebgp -> 1
              | Some _ -> 2
              | None -> 3)
        in
        let cmp (p1, from1) (p2, from2) =
          let c = compare_paths p1 p2 in
          if c <> 0 then c
          else
            let c = compare (kind_rank from1) (kind_rank from2) in
            if c <> 0 then c
            else compare from1 from2
        in
        Some (List.hd (List.sort cmp candidates))
  in
  let old = Pmap.find_opt prefix t.loc in
  if old <> best then begin
    t.loc <-
      (match best with
      | Some e -> Pmap.add prefix e t.loc
      | None -> Pmap.remove prefix t.loc);
    install_rib t prefix best;
    advertise_change t prefix
  end

let peer_full_table t peer =
  (* Freshly established session: advertise our whole view. *)
  Pmap.iter
    (fun prefix (path, learned_from) ->
      match exported t peer ~learned_from prefix path with
      | Some p -> enqueue_change t peer prefix (Announce p)
      | None -> ())
    t.loc

let rec peer_down t peer =
  if peer.established then begin
    peer.established <- false;
    t.session_resets <- t.session_resets + 1;
    let affected = Pmap.fold (fun p _ acc -> p :: acc) peer.adj_in [] in
    peer.adj_in <- Pmap.empty;
    (match peer.hold_timer with Some h -> Engine.cancel h | None -> ());
    peer.hold_timer <- None;
    (match peer.mrai_timer with Some h -> Engine.cancel h | None -> ());
    peer.mrai_timer <- None;
    peer.pending <- Pmap.empty;
    Rchan.reset peer.chan;
    List.iter (decide t) affected;
    (* Try to re-establish. *)
    ignore
      (Engine.after t.engine t.config.reconnect (fun () ->
           if not peer.established then
             post peer (Open { asn = t.config.asn; rid = t.config.rid })))
  end

and reset_hold t peer =
  (match peer.hold_timer with Some h -> Engine.cancel h | None -> ());
  peer.hold_timer <-
    Some (Engine.after t.engine t.config.hold_time (fun () -> peer_down t peer))

let handle_msg t peer m =
  match m with
  | Open _ ->
      reset_hold t peer;
      if not peer.established then begin
        peer.established <- true;
        (* Answer so the other side establishes too, then sync tables. *)
        post peer (Open { asn = t.config.asn; rid = t.config.rid });
        peer_full_table t peer
      end
  | Keepalive -> reset_hold t peer
  | Update u ->
      reset_hold t peer;
      let touched = ref [] in
      List.iter
        (fun prefix ->
          if Pmap.mem prefix peer.adj_in then begin
            peer.adj_in <- Pmap.remove prefix peer.adj_in;
            touched := prefix :: !touched
          end)
        u.withdraw;
      List.iter
        (fun (prefix, path) ->
          (* Loop detection, then the peer's import policy. *)
          if List.mem t.config.asn path.as_path then ()
          else if not (peer.import prefix path) then
            peer.import_rejected <- peer.import_rejected + 1
          else begin
            peer.adj_in <- Pmap.add prefix path peer.adj_in;
            touched := prefix :: !touched
          end)
        u.announce;
      List.iter (decide t) !touched

let receive t ~peer:pid msg =
  match find_peer t pid with
  | None -> ()
  | Some peer ->
      if not (Rchan.receive peer.chan msg) then
        (* Not an ARQ frame: ignore unknown raw control traffic. *)
        ()

let add_peer t ~name ~kind ~send ?(export = fun _ -> true)
    ?(import = fun _ _ -> true) () =
  let pid = List.length t.peers in
  let rec peer =
    lazy
      {
        pid;
        pname = name;
        kind;
        chan =
          Rchan.create ~engine:t.engine ~send
            ~deliver:(fun m ->
              match m with
              | Msg m -> handle_msg t (Lazy.force peer) m
              | _ -> ())
            ();
        export;
        import;
        established = false;
        import_rejected = 0;
        adj_in = Pmap.empty;
        hold_timer = None;
        pending = Pmap.empty;
        mrai_timer = None;
      }
  in
  let peer = Lazy.force peer in
  t.peers <- t.peers @ [ peer ];
  pid

let start t =
  if not t.started then begin
    t.started <- true;
    List.iter (fun prefix -> decide t prefix) t.originated;
    List.iter
      (fun peer ->
        post peer (Open { asn = t.config.asn; rid = t.config.rid }))
      t.peers;
    let keepalive_every =
      Time.of_sec_f (Time.to_sec_f t.config.hold_time /. 3.0)
    in
    Engine.every t.engine keepalive_every (fun () ->
        List.iter
          (fun peer -> if peer.established then post peer Keepalive)
          t.peers;
        true)
  end

let established t pid =
  match find_peer t pid with Some p -> p.established | None -> false

let loc_rib t = List.map (fun (p, (path, _)) -> (p, path)) (Pmap.bindings t.loc)
let best t prefix = Option.map fst (Pmap.find_opt prefix t.loc)

let announce_prefix t prefix =
  if not (List.exists (Prefix.equal prefix) t.originated) then begin
    t.originated <- prefix :: t.originated;
    decide t prefix
  end

let withdraw_prefix t prefix =
  if List.exists (Prefix.equal prefix) t.originated then begin
    t.originated <- List.filter (fun p -> not (Prefix.equal p prefix)) t.originated;
    decide t prefix
  end

let import_rejections t pid =
  match find_peer t pid with Some p -> p.import_rejected | None -> 0

let session_resets t = t.session_resets
