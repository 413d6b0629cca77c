module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Trace = Vini_sim.Trace
module Graph = Vini_topo.Graph
module Iias = Vini_overlay.Iias
module Prefix = Vini_net.Prefix

type violation = { v_at : Time.t; v_check : string; v_detail : string }

type t = {
  engine : Engine.t;
  overlay : Iias.t;
  vtopo : Graph.t;
  grace : Time.t;
  migration_aware : bool;
  mutable running : bool;
  mutable stopped : bool;
  mutable sweeps : int;
  mutable violations : violation list; (* newest first *)
  (* (src, dst) pairs currently unreachable, with the time the condition
     was first observed and whether it was already reported. *)
  unreachable_since : (int * int, Time.t * bool) Hashtbl.t;
}

let max_probe_ttl = 32
let period = Time.sec 1

let create ~engine ~overlay ~vtopo ?(grace = Time.sec 15)
    ?(migration_aware = true) () =
  {
    engine;
    overlay;
    vtopo;
    grace;
    migration_aware;
    running = false;
    stopped = false;
    sweeps = 0;
    violations = [];
    unreachable_since = Hashtbl.create 32;
  }

let report t ~check ~detail =
  t.violations <-
    { v_at = Engine.now t.engine; v_check = check; v_detail = detail }
    :: t.violations;
  if Trace.on Trace.Category.Watchdog then
    Trace.emit ~severity:Trace.Warn ~component:"watchdog"
      (Trace.Watchdog_check { check; detail })

(* A vnode inside its migration cutover window [flip, drain-complete]
   holds a deliberately frozen FIB (deferred routing changes replay at
   thaw), so any check reading its forwarding state would alarm on
   planned, self-healing conditions. *)
let in_grace t v = t.migration_aware && Iias.migration_grace t.overlay v

(* Follow FIBs from [src] towards [dst]'s tap address, hop budget
   {!max_probe_ttl} — the simulated analogue of a TTL-limited probe.
   [Inconclusive]: the probe crossed a vnode inside its migration grace
   window, whose frozen FIB proves nothing. *)
type probe = Delivered | Dropped | Looped of int list | Inconclusive

let probe_path t src dst =
  let dst_addr = Iias.tap_addr (Iias.vnode t.overlay dst) in
  let rec walk v ttl trail =
    if ttl = 0 then Looped (List.rev trail)
    else if in_grace t v then Inconclusive
    else if not (Iias.vnode_alive (Iias.vnode t.overlay v)) then Dropped
    else
      match Iias.fib_next t.overlay v dst_addr with
      | `Local -> Delivered
      | `No_route -> Dropped
      | `Hop next -> walk next (ttl - 1) (next :: trail)
  in
  walk src max_probe_ttl [ src ]

(* Can [src] reach [dst] over currently-up virtual links between live
   nodes?  When not, unreachability is expected partition, not a fault. *)
let connected t src dst =
  let n = Graph.node_count t.vtopo in
  let seen = Array.make n false in
  let alive v = Iias.vnode_alive (Iias.vnode t.overlay v) in
  let q = Queue.create () in
  if alive src then begin
    seen.(src) <- true;
    Queue.add src q
  end;
  let rec bfs () =
    match Queue.take_opt q with
    | None -> false
    | Some v ->
        if v = dst then true
        else begin
          List.iter
            (fun (nbr, _) ->
              if
                (not seen.(nbr))
                && alive nbr
                && Iias.vlink_is_up t.overlay v nbr
              then begin
                seen.(nbr) <- true;
                Queue.add nbr q
              end)
            (Graph.neighbors t.vtopo v);
          bfs ()
        end
  in
  bfs ()

let vname t v = Iias.vname (Iias.vnode t.overlay v)

let check_pair t now src dst =
  let key = (src, dst) in
  match probe_path t src dst with
  | Looped trail ->
      Hashtbl.remove t.unreachable_since key;
      report t ~check:"loop"
        ~detail:
          (Printf.sprintf "%s -> %s: %s" (vname t src) (vname t dst)
             (String.concat " " (List.map (vname t) trail)))
  | Delivered -> Hashtbl.remove t.unreachable_since key
  | Inconclusive ->
      (* Planned cutover in progress somewhere on the path: neither alarm
         nor let a stale unreachability clock keep ticking across it. *)
      Hashtbl.remove t.unreachable_since key
  | Dropped ->
      if connected t src dst then begin
        match Hashtbl.find_opt t.unreachable_since key with
        | None -> Hashtbl.replace t.unreachable_since key (now, false)
        | Some (_, true) -> ()
        | Some (since, false) ->
            if Time.compare (Time.sub now since) t.grace >= 0 then begin
              Hashtbl.replace t.unreachable_since key (since, true);
              report t ~check:"blackhole"
                ~detail:
                  (Printf.sprintf "%s -> %s unreachable for %.1fs"
                     (vname t src) (vname t dst)
                     (Time.to_sec_f (Time.sub now since)))
            end
      end
      else Hashtbl.remove t.unreachable_since key

let check_fib_consistency t v =
  let vn = Iias.vnode t.overlay v in
  if Iias.vnode_alive vn && not (in_grace t v) then begin
    let fib = List.map fst (Iias.fib_entries vn) in
    List.iter
      (fun (p, _) ->
        if not (List.exists (Prefix.equal p) fib) then
          report t ~check:"fib-consistency"
            ~detail:
              (Printf.sprintf "%s: RIB best route %s missing from FIB"
                 (vname t v) (Prefix.to_string p)))
      (Vini_routing.Rib.routes (Iias.rib vn))
  end

let sweep t =
  t.sweeps <- t.sweeps + 1;
  let now = Engine.now t.engine in
  let n = Iias.vnode_count t.overlay in
  for src = 0 to n - 1 do
    if Iias.vnode_alive (Iias.vnode t.overlay src) then
      for dst = 0 to n - 1 do
        if dst <> src && Iias.vnode_alive (Iias.vnode t.overlay dst) then
          check_pair t now src dst
      done
  done;
  for v = 0 to n - 1 do
    check_fib_consistency t v
  done

(* Deliberately no [~jitter] here: the watchdog must not touch any RNG so
   that adding it to a run changes no packet-level result. *)
let start t =
  if t.stopped then invalid_arg "Watchdog.start: already stopped";
  if not t.running then begin
    t.running <- true;
    Engine.every t.engine period (fun () ->
        if t.running then sweep t;
        t.running)
  end

let stop t =
  t.running <- false;
  t.stopped <- true

let violations t = List.rev t.violations
let sweeps t = t.sweeps
let violation_count t = List.length t.violations

let counts_by_check t =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl v.v_check
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v.v_check)))
    t.violations;
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])

let json t =
  Export.Obj
    [
      ("sweeps", Export.Num (float_of_int t.sweeps));
      ("violation_count", Export.Num (float_of_int (violation_count t)));
      ( "by_check",
        Export.Obj
          (List.map
             (fun (k, c) -> (k, Export.Num (float_of_int c)))
             (counts_by_check t)) );
      ( "violations",
        Export.Arr
          (List.map
             (fun v ->
               Export.Obj
                 [
                   ("t_s", Export.Num (Time.to_sec_f v.v_at));
                   ("check", Export.Str v.v_check);
                   ("detail", Export.Str v.v_detail);
                 ])
             (violations t)) );
    ]
