(* Background defragmentation: under slice churn (deploys, undeploys,
   crash-driven re-embeds) the substrate drifts towards a skewed load —
   a few machines near saturation while others idle.  The defragmenter
   periodically inspects per-node stress and, when the hottest machine
   exceeds a threshold, schedules one make-before-break live migration
   ([Vini.migrate]) to lift a virtual node off it, letting the online
   solver's congestion pricing choose the destination.  Fruitless sweeps
   back off exponentially and a give-up budget stops a defragmenter that
   cannot make progress (every candidate rejected or already optimal). *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Substrate = Vini_embed.Substrate
module Graph = Vini_topo.Graph
module Iias = Vini_overlay.Iias

type t = {
  net : Vini.t;
  period : Time.t;
  threshold : float;
  budget : int;
  mutable streak : int;  (* consecutive fruitless sweeps *)
  mutable sweeps : int;
  mutable moves : int;
  mutable gave_up : bool;
}

(* Physical nodes above the stress threshold, hottest first (ties by
   ascending id, so sweeps are deterministic). *)
let stressed_pnodes t =
  let sub = Vini.substrate t.net in
  let n = Graph.node_count (Substrate.graph sub) in
  let xs = ref [] in
  for p = n - 1 downto 0 do
    let cap = Substrate.node_capacity sub p in
    if cap > 0.0 && Substrate.node_up sub p then begin
      let s = Substrate.node_used sub p /. cap in
      if s > t.threshold then xs := (s, p) :: !xs
    end
  done;
  List.sort
    (fun (sa, pa) (sb, pb) ->
      match compare sb sa with 0 -> compare pa pb | c -> c)
    !xs

(* Try to lift one virtual node off physical node [p]; the first move the
   planner prices as profitable wins the sweep.  Only auto-placed
   instances participate — a pinned placement has no solver to consult. *)
let try_move t p =
  let rec inst_loop = function
    | [] -> false
    | inst :: rest ->
        if Option.is_none (Vini.mapping inst) then inst_loop rest
        else begin
          let ov = Vini.iias inst in
          let nv = Iias.vnode_count ov in
          let rec vloop v =
            if v >= nv then inst_loop rest
            else if
              Iias.current_pnode ov v = p
              && (not (Iias.migration_pending ov v))
              && not (List.mem v (Vini.parked inst))
            then
              match Vini.migrate inst ~vnode:v with
              | Ok true ->
                  t.moves <- t.moves + 1;
                  true
              | Ok false | Error _ -> vloop (v + 1)
              | exception Invalid_argument _ -> vloop (v + 1)
            else vloop (v + 1)
          in
          vloop 0
        end
  in
  inst_loop (Vini.instances t.net)

let rec schedule t delay =
  if not t.gave_up then
    ignore (Engine.after (Vini.engine t.net) delay (fun () -> sweep t))

and sweep t =
  if not t.gave_up then begin
    t.sweeps <- t.sweeps + 1;
    let sub = Vini.substrate t.net in
    if Substrate.max_node_stress sub <= t.threshold then begin
      t.streak <- 0;
      schedule t t.period
    end
    else if List.exists (fun (_, p) -> try_move t p) (stressed_pnodes t)
    then begin
      t.streak <- 0;
      schedule t t.period
    end
    else begin
      t.streak <- t.streak + 1;
      if t.streak >= t.budget then t.gave_up <- true
      else begin
        let d = ref t.period in
        for _ = 1 to t.streak do
          d := Time.mul !d 2
        done;
        schedule t !d
      end
    end
  end

let attach ?(period = Time.sec 5) ?(threshold = 0.75) ?(budget = 3) net =
  if threshold <= 0.0 || threshold >= 1.0 then
    invalid_arg "Defrag.attach: threshold outside (0,1)";
  if budget < 1 then invalid_arg "Defrag.attach: budget must be >= 1";
  let t =
    {
      net;
      period;
      threshold;
      budget;
      streak = 0;
      sweeps = 0;
      moves = 0;
      gave_up = false;
    }
  in
  schedule t period;
  t

let sweeps t = t.sweeps
let moves_started t = t.moves
let gave_up t = t.gave_up
