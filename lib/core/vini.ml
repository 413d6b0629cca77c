module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Underlay = Vini_phys.Underlay
module Iias = Vini_overlay.Iias
module Substrate = Vini_embed.Substrate
module Embed = Vini_embed.Embed
module Request = Vini_embed.Request

type migration_kind = Planned | Crash_driven

type migration = {
  m_vnode : int;
  m_from : int;
  m_to : int;
  m_kind : migration_kind;
  m_down_at : Time.t;      (* when service stopped (= restored for planned) *)
  m_restored_at : Time.t;  (* when the replacement router was serving *)
  m_cutover_loss : int option;    (* packets; measured for planned moves *)
  m_stretch_before : float;       (* mean path stretch around the move *)
  m_stretch_after : float;
  m_balance_before : float;       (* substrate max node stress around it *)
  m_balance_after : float;
}

(* An in-flight planned (make-before-break) move and the accounting needed
   to settle or roll it back. *)
type pending_move = {
  pv_vnode : int;
  pv_from : int;
  pv_to : int;
  pv_acct : move_acct option;  (* None for pinned placements *)
  mutable pv_flipped : bool;
  mutable pv_flip_at : Time.t;
}

and move_acct = {
  mv_cur : Embed.mapping;   (* mapping when the move was provisioned *)
  mv_next : Embed.mapping;  (* planned mapping, committed as a delta *)
  mv_except : int list;     (* parked vnodes at provision time *)
  mv_stretch_before : float;
  mv_balance_before : float;
}

type instance = {
  ispec : Experiment.spec;
  overlay : Iias.t;
  owner : t;
  areq : Request.t option;  (* Some for Auto placements *)
  mutable started : bool;
  mutable instance_epoch : Time.t;
  mutable upcall_hooks : (Underlay.event -> unit) list;
  mutable upcalls : int;
  mutable mapping : Embed.mapping option;
  mutable migrations : migration list;
  mutable reembed_failures : (int * Embed.rejection) list;
  (* Vnodes whose share is off the substrate books: their machine died and
     the re-embed was rejected, so the residuals look exactly as after a
     withdraw of just that vnode.  Re-committed when the machine reboots. *)
  mutable parked : int list;
  mutable pending_moves : pending_move list;
  mutable migration_failures : (int * string) list;
  (* Crash_pnode v downs the machine *currently* hosting v; Restore_pnode
     v must reboot that same machine even if v migrated away meanwhile. *)
  crash_sites : (int, int) Hashtbl.t;
  down_since : (int, Time.t) Hashtbl.t;  (* vnode -> machine-death instant *)
  (* The background fluid model, installed at [start] when the spec
     carries a scenario with non-packet fidelity. *)
  mutable fluid : Vini_scenario.Fluid.t option;
}

and t = {
  engine : Engine.t;
  under : Underlay.t;
  substrate : Substrate.t;
  mutable deployed : instance list;
  mutable next_tunnel_port : int;
}

let create ~engine ~graph ?profile () =
  let rng = Vini_std.Rng.split (Engine.rng engine) in
  let under = Underlay.create ~engine ~rng ~graph ?profile () in
  let t =
    {
      engine;
      under;
      substrate = Substrate.of_underlay under;
      deployed = [];
      next_tunnel_port = 33000;
    }
  in
  (* Fan underlay alarms out to every experiment: the upcalls of §6.1. *)
  Underlay.subscribe under (fun ev ->
      List.iter
        (fun inst ->
          inst.upcalls <- inst.upcalls + 1;
          List.iter (fun f -> f ev) inst.upcall_hooks)
        t.deployed);
  t

let engine t = t.engine
let underlay t = t.under
let substrate t = t.substrate

let run ?until t = Engine.run ?until t.engine

(* --- crash-driven re-embedding ----------------------------------------- *)

let is_deployed inst = List.exists (fun i -> i == inst) inst.owner.deployed

let reembed_delay = Time.ms 500

(* A dead machine's virtual node waits [reembed_delay] — the grace period
   in which a reboot lets the supervisor restart in place — then, if the
   machine is still down, is re-embedded onto a feasible surviving node
   and rebuilt there.  Survivors never move: the solver runs with every
   other virtual node pinned to its current host.  A rejected re-embed
   parks the vnode: the survivors' reservations go back on the books but
   the dead vnode's share stays released, exactly as a withdraw of just
   that vnode would leave the substrate. *)
let rec attempt_reembed inst v =
  let t = inst.owner in
  if is_deployed inst then
    if inst.pending_moves <> [] then
      (* A live migration's double-provisioned accounting is in flight;
         settle it first, then retry. *)
      ignore
        (Engine.after t.engine reembed_delay (fun () ->
             attempt_reembed inst v))
    else
      let p = Iias.current_pnode inst.overlay v in
      if not (Underlay.node_is_up t.under p) then
        match (inst.mapping, inst.areq) with
        | Some m, Some req -> (
            let vtopo = inst.ispec.Experiment.vtopo in
            Embed.withdraw ~except:inst.parked t.substrate ~vtopo req m;
            match Embed.reembed t.substrate ~vtopo req m ~vnode:v with
            | Ok m' ->
                let survivors_parked =
                  List.filter (fun w -> w <> v) inst.parked
                in
                Embed.commit ~except:survivors_parked t.substrate ~vtopo req m';
                inst.parked <- survivors_parked;
                let balance = Substrate.max_node_stress t.substrate in
                let stretch_before = Embed.stretch t.substrate m in
                Iias.migrate_vnode inst.overlay v ~pnode:m'.Embed.nodes.(v);
                inst.mapping <- Some m';
                let down_at =
                  Option.value
                    (Hashtbl.find_opt inst.down_since v)
                    ~default:(Engine.now t.engine)
                in
                Hashtbl.remove inst.down_since v;
                inst.migrations <-
                  inst.migrations
                  @ [
                      {
                        m_vnode = v;
                        m_from = p;
                        m_to = m'.Embed.nodes.(v);
                        m_kind = Crash_driven;
                        m_down_at = down_at;
                        m_restored_at = Engine.now t.engine;
                        m_cutover_loss = None;
                        m_stretch_before = stretch_before;
                        m_stretch_after = Embed.stretch t.substrate m';
                        m_balance_before = balance;
                        m_balance_after = balance;
                      };
                    ]
            | Error rej ->
                (* Nowhere to go: survivors' reservations go back, the
                   dead vnode's share stays off the books (parked), and
                   the vnode waits for the supervisor's restart-in-place
                   loop. *)
                Embed.commit ~except:(v :: inst.parked) t.substrate ~vtopo req
                  m;
                if not (List.mem v inst.parked) then
                  inst.parked <- inst.parked @ [ v ];
                inst.reembed_failures <- inst.reembed_failures @ [ (v, rej) ])
        | _ -> ()

(* A machine reboot brings a parked vnode's share back onto the books: the
   supervisor restarts the process in place, and the substrate account
   must follow.  Deferred while a live migration is settling, like
   [attempt_reembed]. *)
let rec restore_parked inst p =
  let t = inst.owner in
  if is_deployed inst && inst.parked <> [] then
    if inst.pending_moves <> [] then
      ignore
        (Engine.after t.engine reembed_delay (fun () ->
             restore_parked inst p))
    else
      match (inst.mapping, inst.areq) with
      | Some m, Some req ->
          let vtopo = inst.ispec.Experiment.vtopo in
          List.iter
            (fun v ->
              if Iias.current_pnode inst.overlay v = p then begin
                let others = List.filter (fun w -> w <> v) inst.parked in
                Embed.commit_delta ~except:others t.substrate ~vtopo req m
                  ~vnode:v;
                inst.parked <- others;
                Hashtbl.remove inst.down_since v
              end)
            inst.parked
      | _ -> ()

(* A crash whose own timeline schedules a later Restore_pnode for the same
   virtual node is planned downtime — maintenance, not failure.  The
   machine will reboot and the supervisor restart in place, so migrating
   the vnode away (and paying the routing re-convergence twice) would be
   wrong.  Only unplanned deaths re-embed. *)
let planned_restore inst v =
  let now = Engine.now inst.owner.engine in
  List.exists
    (fun ev ->
      match ev.Experiment.action with
      | Experiment.Restore_pnode rv ->
          rv = v
          && Time.compare (Time.add inst.instance_epoch ev.Experiment.at) now
             > 0
      | _ -> false)
    inst.ispec.Experiment.events

let schedule_reembed inst p =
  let t = inst.owner in
  Array.iteri
    (fun v host ->
      if host = p && not (planned_restore inst v) then begin
        if not (Hashtbl.mem inst.down_since v) then
          Hashtbl.replace inst.down_since v (Engine.now t.engine);
        ignore
          (Engine.after t.engine reembed_delay (fun () ->
               attempt_reembed inst v))
      end)
    (Iias.current_embedding inst.overlay)

(* --- deployment --------------------------------------------------------- *)

let try_deploy t spec =
  (match Experiment.validate ~phys:(Underlay.graph t.under) spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Vini.deploy: " ^ msg));
  let vtopo = spec.Experiment.vtopo in
  let placement_result =
    match spec.Experiment.placement with
    | Experiment.Pinned f -> Ok (f, None, None)
    | Experiment.Auto req -> (
        match Embed.admit t.substrate ~vtopo req with
        | Ok m -> Ok ((fun v -> m.Embed.nodes.(v)), Some m, Some req)
        | Error r -> Error r)
  in
  match placement_result with
  | Error r -> Error r
  | Ok (embedding, mapping, areq) ->
      let tunnel_port = t.next_tunnel_port in
      t.next_tunnel_port <- t.next_tunnel_port + 10;
      let overlay =
        Iias.create ~underlay:t.under ~slice:spec.Experiment.slice ~vtopo
          ~embedding ~routing:spec.Experiment.routing ~tunnel_port ()
      in
      List.iter
        (fun (v, pool) -> Iias.enable_ingress overlay v ~pool)
        spec.Experiment.ingresses;
      List.iter
        (fun v -> Iias.enable_egress overlay v)
        spec.Experiment.egresses;
      let inst =
        {
          ispec = spec;
          overlay;
          owner = t;
          areq;
          started = false;
          instance_epoch = Time.zero;
          upcall_hooks = [];
          upcalls = 0;
          mapping;
          migrations = [];
          reembed_failures = [];
          parked = [];
          pending_moves = [];
          migration_failures = [];
          crash_sites = Hashtbl.create 4;
          down_since = Hashtbl.create 4;
          fluid = None;
        }
      in
      if areq <> None then
        inst.upcall_hooks <-
          inst.upcall_hooks
          @ [
              (function
              | Underlay.Node_down p when inst.started ->
                  schedule_reembed inst p
              | Underlay.Node_up p when inst.started ->
                  restore_parked inst p
              | Underlay.Node_down _ | Underlay.Node_up _
              | Underlay.Link_down _ | Underlay.Link_up _ ->
                  ());
            ];
      t.deployed <- t.deployed @ [ inst ];
      Ok inst

let deploy t spec =
  match try_deploy t spec with
  | Ok inst -> inst
  | Error r ->
      invalid_arg
        ("Vini.deploy: embedding rejected: " ^ Embed.rejection_to_string r)

let undeploy t inst =
  (match (inst.mapping, inst.areq) with
  | Some m, Some req ->
      let vtopo = inst.ispec.Experiment.vtopo in
      (* Parked shares are already off the books; an in-flight move also
         holds the other side of its double-provisioned delta (the old
         share if flipped, the new one if not). *)
      Embed.withdraw ~except:inst.parked t.substrate ~vtopo req m;
      List.iter
        (fun pv ->
          match pv.pv_acct with
          | Some a ->
              let other = if pv.pv_flipped then a.mv_cur else a.mv_next in
              Embed.withdraw_delta ~except:a.mv_except t.substrate ~vtopo req
                other ~vnode:pv.pv_vnode
          | None -> ())
        inst.pending_moves
  | _ -> ());
  inst.pending_moves <- [];
  t.deployed <- List.filter (fun i -> i != inst) t.deployed

(* --- planned live migration -------------------------------------------- *)

(* Settle a flipped move once its drain window closes: retire the old
   process (counting what it still buffered as cutover loss), release the
   old share of the double-provisioned delta, and record the move's
   quality figures. *)
let finish_move inst pv =
  let t = inst.owner in
  if is_deployed inst && List.memq pv inst.pending_moves then begin
    let loss = Iias.finish_migration inst.overlay pv.pv_vnode in
    inst.pending_moves <- List.filter (fun x -> x != pv) inst.pending_moves;
    let stretch_before, stretch_after, balance_before =
      match (pv.pv_acct, inst.areq) with
      | Some a, Some req ->
          let vtopo = inst.ispec.Experiment.vtopo in
          Embed.withdraw_delta ~except:a.mv_except t.substrate ~vtopo req
            a.mv_cur ~vnode:pv.pv_vnode;
          ( a.mv_stretch_before,
            Embed.stretch t.substrate a.mv_next,
            a.mv_balance_before )
      | _ ->
          let b = Substrate.max_node_stress t.substrate in
          (1.0, 1.0, b)
    in
    inst.migrations <-
      inst.migrations
      @ [
          {
            m_vnode = pv.pv_vnode;
            m_from = pv.pv_from;
            m_to = pv.pv_to;
            m_kind = Planned;
            (* Make-before-break: service never stopped, downtime zero. *)
            m_down_at = pv.pv_flip_at;
            m_restored_at = pv.pv_flip_at;
            m_cutover_loss = Some loss;
            m_stretch_before = stretch_before;
            m_stretch_after = stretch_after;
            m_balance_before = balance_before;
            m_balance_after = Substrate.max_node_stress t.substrate;
          };
        ]
  end

(* Roll a not-yet-flipped move back: retire the clone, release the new
   share of the delta, record the failure.  The old process never stopped
   serving, so the slice observes nothing. *)
let rollback_move inst pv reason =
  let t = inst.owner in
  Iias.abort_migration inst.overlay pv.pv_vnode;
  (match (pv.pv_acct, inst.areq) with
  | Some a, Some req ->
      Embed.withdraw_delta ~except:a.mv_except t.substrate
        ~vtopo:inst.ispec.Experiment.vtopo req a.mv_next ~vnode:pv.pv_vnode
  | _ -> ());
  inst.pending_moves <- List.filter (fun x -> x != pv) inst.pending_moves;
  inst.migration_failures <- inst.migration_failures @ [ (pv.pv_vnode, reason) ]

(* Schedule the atomic flip [flip_delay] from now and the drain completion
   after it.  The flip is one engine event, so every packet event before
   it sees the old placement and every one after it the new.  The flip
   callback re-checks liveness: if the clone, its machine, or the old
   process died since provisioning, the move rolls back instead of
   flipping. *)
let flip_delay = Time.ms 10

let schedule_flip inst pv ~drain =
  let t = inst.owner in
  ignore
    (Engine.at t.engine
       (Time.add (Engine.now t.engine) flip_delay)
       (fun () ->
         if is_deployed inst && List.memq pv inst.pending_moves then
           if Iias.commit_migration inst.overlay pv.pv_vnode then begin
             pv.pv_flipped <- true;
             pv.pv_flip_at <- Engine.now t.engine;
             (match pv.pv_acct with
             | Some a -> inst.mapping <- Some a.mv_next
             | None -> ());
             ignore
               (Engine.after t.engine drain (fun () -> finish_move inst pv))
           end
           else
             rollback_move inst pv
               "flip aborted: a process or machine died before the cutover"))

let migrate ?target ?(drain = Time.sec 1) inst ~vnode =
  let t = inst.owner in
  if not inst.started then invalid_arg "Vini.migrate: instance not started";
  if List.exists (fun pv -> pv.pv_vnode = vnode) inst.pending_moves then
    invalid_arg "Vini.migrate: migration of this vnode already in flight";
  if List.mem vnode inst.parked then
    invalid_arg "Vini.migrate: virtual node's machine is down";
  let vtopo = inst.ispec.Experiment.vtopo in
  let cur_host = Iias.current_pnode inst.overlay vnode in
  match (inst.mapping, inst.areq) with
  | Some m, Some req -> (
      match Embed.plan_move t.substrate ~vtopo req m ~vnode ?target () with
      | Error r -> Error r
      | Ok next when next.Embed.nodes.(vnode) = cur_host ->
          (* The current host is already the cheapest feasible one. *)
          Ok false
      | Ok next ->
          let tp = next.Embed.nodes.(vnode) in
          let acct =
            {
              mv_cur = m;
              mv_next = next;
              mv_except = inst.parked;
              mv_stretch_before = Embed.stretch t.substrate m;
              mv_balance_before = Substrate.max_node_stress t.substrate;
            }
          in
          (* Make before break: the new share joins the books while the
             old one is still held; [begin_migration] double-provisions
             the process and sockets the same way. *)
          Embed.commit_delta ~except:acct.mv_except t.substrate ~vtopo req next
            ~vnode;
          (try Iias.begin_migration inst.overlay vnode ~pnode:tp
           with e ->
             Embed.withdraw_delta ~except:acct.mv_except t.substrate ~vtopo req
               next ~vnode;
             raise e);
          let pv =
            {
              pv_vnode = vnode;
              pv_from = cur_host;
              pv_to = tp;
              pv_acct = Some acct;
              pv_flipped = false;
              pv_flip_at = Time.zero;
            }
          in
          inst.pending_moves <- inst.pending_moves @ [ pv ];
          schedule_flip inst pv ~drain;
          Ok true)
  | _ -> (
      (* Pinned placement: no substrate accounting to move, but the
         make-before-break data-plane pipeline runs the same. *)
      match target with
      | None ->
          invalid_arg "Vini.migrate: pinned placement needs an explicit target"
      | Some tp ->
          if tp = cur_host then Ok false
          else begin
            Iias.begin_migration inst.overlay vnode ~pnode:tp;
            let pv =
              {
                pv_vnode = vnode;
                pv_from = cur_host;
                pv_to = tp;
                pv_acct = None;
                pv_flipped = false;
                pv_flip_at = Time.zero;
              }
            in
            inst.pending_moves <- inst.pending_moves @ [ pv ];
            schedule_flip inst pv ~drain;
            Ok true
          end)

let run_action inst = function
  | Experiment.Fail_vlink (a, b) -> Iias.set_vlink_state inst.overlay a b false
  | Experiment.Restore_vlink (a, b) ->
      Iias.set_vlink_state inst.overlay a b true
  | Experiment.Fail_plink (a, b) ->
      Underlay.set_link_state inst.owner.under a b false
  | Experiment.Restore_plink (a, b) ->
      Underlay.set_link_state inst.owner.under a b true
  | Experiment.Set_vlink_loss (a, b, loss) ->
      Iias.set_vlink_loss inst.overlay a b loss
  | Experiment.Set_vlink_bandwidth (a, b, rate) ->
      Iias.set_vlink_bandwidth inst.overlay a b rate
  | Experiment.Set_vlink_cost (a, b, cost) ->
      Iias.set_vlink_cost inst.overlay a b cost
  | Experiment.Crash_pnode v ->
      let p = Iias.current_pnode inst.overlay v in
      Hashtbl.replace inst.crash_sites v p;
      Underlay.set_node_state inst.owner.under p false
  | Experiment.Restore_pnode v ->
      let p =
        match Hashtbl.find_opt inst.crash_sites v with
        | Some p -> p
        | None -> Iias.current_pnode inst.overlay v
      in
      Hashtbl.remove inst.crash_sites v;
      Underlay.set_node_state inst.owner.under p true
  | Experiment.Kill_process v -> Iias.kill_vnode inst.overlay v
  | Experiment.Flap_vlink (a, b, down_s) ->
      Iias.set_vlink_state inst.overlay a b false;
      ignore
        (Engine.after inst.owner.engine (Time.of_sec_f down_s) (fun () ->
             Iias.set_vlink_state inst.overlay a b true))
  | Experiment.Corrupt_vlink (a, b, p) ->
      Iias.set_vlink_corrupt inst.overlay a b p
  | Experiment.Migrate_vnode (v, p) ->
      (* Planned moves from a timeline are best-effort: a rejected plan
         is recorded in [migration_failures], not raised mid-run. *)
      (match migrate ~target:p inst ~vnode:v with
      | Ok _ -> ()
      | Error r ->
          inst.migration_failures <-
            inst.migration_failures @ [ (v, Embed.rejection_to_string r) ])
  | Experiment.Custom (_, f) -> f inst.overlay

let start inst =
  if not inst.started then begin
    inst.started <- true;
    inst.instance_epoch <- Engine.now inst.owner.engine;
    Iias.start inst.overlay;
    (* Chaos specs imply supervised recovery; a custom policy can be set
       by calling [Iias.enable_supervision ~policy] before start
       (enabling is idempotent and draws no randomness until a crash). *)
    if
      List.exists
        (fun (ev : Experiment.event) ->
          Experiment.is_chaos_action ev.Experiment.action)
        inst.ispec.Experiment.events
    then Iias.enable_supervision inst.overlay;
    (* A declared scenario with flow or hybrid fidelity brings up the
       fluid background-load model on the shared underlay.  Its
       tick starts now, so the background ramps with the experiment. *)
    (match inst.ispec.Experiment.scenario with
    | Some { Experiment.workload; fidelity; tick }
      when fidelity <> Vini_scenario.Fluid.Packet ->
        inst.fluid <-
          Some
            (Vini_scenario.Fluid.install ~under:inst.owner.under
               { Vini_scenario.Fluid.fidelity; tick; workload })
    | Some _ | None -> ());
    List.iter
      (fun (ev : Experiment.event) ->
        ignore
          (Engine.at inst.owner.engine
             (Time.add inst.instance_epoch ev.Experiment.at)
             (fun () -> run_action inst ev.Experiment.action)))
      inst.ispec.Experiment.events
  end

let iias inst = inst.overlay
let fluid inst = inst.fluid
let instances t = t.deployed
let on_upcall inst f = inst.upcall_hooks <- inst.upcall_hooks @ [ f ]
let upcalls_delivered inst = inst.upcalls
let epoch inst = inst.instance_epoch
let mapping inst = inst.mapping
let placement_request inst = inst.areq
let migrations inst = inst.migrations
let reembed_failures inst = inst.reembed_failures
let migration_failures inst = inst.migration_failures
let parked inst = inst.parked
let pending_migrations inst = List.length inst.pending_moves
