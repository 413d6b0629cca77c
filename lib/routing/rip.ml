module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Prefix = Vini_net.Prefix

type config = {
  update_interval : Time.t;
  timeout : Time.t;
  gc : Time.t;
  triggered_holddown : Time.t;
  local_prefixes : Prefix.t list;
}

let default_config ~local_prefixes =
  {
    update_interval = Time.sec 30;
    timeout = Time.sec 180;
    gc = Time.sec 120;
    triggered_holddown = Time.sec 1;
    local_prefixes;
  }

let scaled_config ~scale ~local_prefixes =
  let s t = Time.of_sec_f (Time.to_sec_f t *. scale) in
  let c = default_config ~local_prefixes in
  {
    update_interval = s c.update_interval;
    timeout = s c.timeout;
    gc = s c.gc;
    triggered_holddown = s c.triggered_holddown;
    local_prefixes;
  }

let infinity_metric = 16

type entry = { prefix : Prefix.t; metric : int }
type msg = Response of entry list
type Packet.control += Msg of msg

let msg_size (Response entries) = 24 + (20 * List.length entries)

module Pmap = Map.Make (Prefix)

type route = {
  metric : int;                      (* infinity_metric = unreachable *)
  via : Vini_net.Addr.t option;      (* None for local prefixes *)
  learned_if : int option;
  mutable expiry : Engine.handle option;
  mutable gc_timer : Engine.handle option;
}

type t = {
  engine : Engine.t;
  rng : Vini_std.Rng.t;
  config : config;
  ifaces : Io.iface list;
  rib : Rib.t;
  mutable routes : route Pmap.t;
  mutable triggered_pending : bool;
  mutable messages_sent : int;
  mutable stopped : bool;
}

let create ~engine ~rng ~config ~ifaces ~rib =
  let t =
    {
      engine;
      rng;
      config;
      ifaces;
      rib;
      routes = Pmap.empty;
      triggered_pending = false;
      messages_sent = 0;
      stopped = false;
    }
  in
  List.iter
    (fun p ->
      t.routes <-
        Pmap.add p
          { metric = 1; via = None; learned_if = None; expiry = None; gc_timer = None }
          t.routes)
    config.local_prefixes;
  t

let cancel_timers r =
  (match r.expiry with Some h -> Engine.cancel h | None -> ());
  (match r.gc_timer with Some h -> Engine.cancel h | None -> ());
  r.expiry <- None;
  r.gc_timer <- None

let sync_rib t prefix =
  match Pmap.find_opt prefix t.routes with
  | Some r when r.metric < infinity_metric -> (
      match r.via with
      | Some nh ->
          Rib.update t.rib ~proto:Rib.Rip prefix
            (Some { Rib.next_hop = nh; metric = r.metric; proto = Rib.Rip })
      | None -> ())
  | Some _ | None -> Rib.update t.rib ~proto:Rib.Rip prefix None

let send_update t (iface : Io.iface) =
  (* Split horizon with poisoned reverse. *)
  let entries =
    Pmap.fold
      (fun prefix r acc ->
        let metric =
          if r.learned_if = Some iface.Io.ifindex then infinity_metric
          else r.metric
        in
        { prefix; metric } :: acc)
      t.routes []
  in
  if entries <> [] && not t.stopped then begin
    t.messages_sent <- t.messages_sent + 1;
    let m = Response (List.rev entries) in
    iface.Io.send (Msg m) ~size:(msg_size m)
  end

let send_all t = List.iter (send_update t) t.ifaces

let rec schedule_triggered t =
  if not t.triggered_pending then begin
    t.triggered_pending <- true;
    ignore
      (Engine.after t.engine t.config.triggered_holddown (fun () ->
           t.triggered_pending <- false;
           if not t.stopped then send_all t))
  end

and expire t prefix =
  match Pmap.find_opt prefix t.routes with
  | None -> ()
  | Some r ->
      cancel_timers r;
      let dead = { r with metric = infinity_metric } in
      t.routes <- Pmap.add prefix dead t.routes;
      dead.gc_timer <-
        Some
          (Engine.after t.engine t.config.gc (fun () ->
               t.routes <- Pmap.remove prefix t.routes));
      sync_rib t prefix;
      schedule_triggered t

and refresh_timers t prefix r =
  cancel_timers r;
  r.expiry <- Some (Engine.after t.engine t.config.timeout (fun () -> expire t prefix))

let accept t ~(iface : Io.iface) (e : entry) =
  let advertised = min infinity_metric (e.metric + 1) in
  let current = Pmap.find_opt e.prefix t.routes in
  match current with
  | Some r when r.via = None -> () (* our own prefix *)
  | Some r when r.learned_if = Some iface.Io.ifindex ->
      (* Update from the current next hop: always believe it. *)
      if advertised >= infinity_metric then begin
        if r.metric < infinity_metric then expire t e.prefix
        else refresh_timers t e.prefix r
      end
      else begin
        let changed = advertised <> r.metric in
        let nr =
          { r with metric = advertised; via = Some iface.Io.remote }
        in
        t.routes <- Pmap.add e.prefix nr t.routes;
        refresh_timers t e.prefix nr;
        sync_rib t e.prefix;
        if changed then schedule_triggered t
      end
  | Some r when advertised < r.metric ->
      let nr =
        {
          metric = advertised;
          via = Some iface.Io.remote;
          learned_if = Some iface.Io.ifindex;
          expiry = None;
          gc_timer = None;
        }
      in
      cancel_timers r;
      t.routes <- Pmap.add e.prefix nr t.routes;
      refresh_timers t e.prefix nr;
      sync_rib t e.prefix;
      schedule_triggered t
  | Some _ -> ()
  | None ->
      if advertised < infinity_metric then begin
        let nr =
          {
            metric = advertised;
            via = Some iface.Io.remote;
            learned_if = Some iface.Io.ifindex;
            expiry = None;
            gc_timer = None;
          }
        in
        t.routes <- Pmap.add e.prefix nr t.routes;
        refresh_timers t e.prefix nr;
        sync_rib t e.prefix;
        schedule_triggered t
      end

let receive t ~ifindex msg =
  if t.stopped then ()
  else
  match msg with
  | Msg (Response entries) -> (
      match List.find_opt (fun i -> i.Io.ifindex = ifindex) t.ifaces with
      | Some iface -> List.iter (accept t ~iface) entries
      | None -> ())
  | _ -> ()

let start t =
  List.iter (fun p -> sync_rib t p) t.config.local_prefixes;
  let jitter =
    Time.of_sec_f (Time.to_sec_f t.config.update_interval /. 6.0)
  in
  ignore
    (Engine.after t.engine
       (Time.of_sec_f
          (Vini_std.Rng.float t.rng
             (Time.to_sec_f t.config.update_interval /. 10.0)))
       (fun () ->
         if not t.stopped then begin
           send_all t;
           Engine.every t.engine ~jitter t.config.update_interval (fun () ->
               send_all t;
               not t.stopped)
         end))

(* Permanently silence this instance: cancel route timers, stop updates,
   ignore arrivals, leave the RIB alone.  A restarted router gets a fresh
   instance. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Pmap.iter (fun _ r -> cancel_timers r) t.routes
  end

let table t =
  Pmap.fold
    (fun p r acc -> if r.metric < infinity_metric then (p, r.metric) :: acc else acc)
    t.routes []
  |> List.rev

let messages_sent t = t.messages_sent
