module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Rng = Vini_std.Rng
module Trace = Vini_sim.Trace

type policy = {
  base_backoff : float;
  max_backoff : float;
  jitter_frac : float;
  max_restarts : int;
  intensity_window : float;
}

let default_policy =
  {
    base_backoff = 0.5;
    max_backoff = 30.0;
    jitter_frac = 0.25;
    max_restarts = 5;
    intensity_window = 60.0;
  }

type child = {
  mutable child_name : string;
  mutable proc : Process.t;
  on_restart : unit -> unit;
  mutable crash_times : float list;  (* newest first, within the window *)
  mutable consecutive : int;         (* crashes since last stable period *)
  mutable given_up : bool;
  mutable pending : bool;            (* a restart attempt is scheduled *)
  mutable total_restarts : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t Lazy.t;
  policy : policy;
  mutable children : child list;
}

(* The RNG is lazy so that a supervisor which never has to restart anything
   draws nothing: enabling supervision with chaos disabled leaves every
   other random stream — and therefore the whole run — bit-identical. *)
let create ~engine ~rng ?(policy = default_policy) () =
  { engine; rng; policy; children = [] }

let lifecycle c phase detail =
  if Trace.on Trace.Category.Process_lifecycle then
    Trace.emit ~severity:Trace.Warn ~component:c.child_name
      (Trace.Process_lifecycle { phase; detail })

let backoff_s t c =
  let p = t.policy in
  let raw = p.base_backoff *. (2.0 ** float_of_int (max 0 (c.consecutive - 1))) in
  let capped = Float.min p.max_backoff raw in
  let u = Rng.float (Lazy.force t.rng) 1.0 in
  capped *. (1.0 +. (p.jitter_frac *. ((2.0 *. u) -. 1.0)))

let rec attempt t c ~delay_s =
  ignore
    (Engine.after t.engine (Time.of_sec_f delay_s) (fun () ->
         if c.given_up || Process.alive c.proc then c.pending <- false
         else if not (Pnode.is_up (Process.node c.proc)) then begin
           (* The machine itself is still down: keep polling at the same
              backoff without burning restart-intensity budget. *)
           lifecycle c "restart-wait" "node down";
           attempt t c ~delay_s
         end
         else begin
           c.pending <- false;
           c.total_restarts <- c.total_restarts + 1;
           Process.restart c.proc;
           c.on_restart ()
         end))

let on_child_crash t c =
  if not c.given_up then begin
    let now = Time.to_sec_f (Engine.now t.engine) in
    let horizon = now -. t.policy.intensity_window in
    c.crash_times <- now :: List.filter (fun ts -> ts >= horizon) c.crash_times;
    (* A quiet spell resets the backoff ladder. *)
    (match c.crash_times with
    | _ :: prev :: _ when now -. prev > t.policy.intensity_window ->
        c.consecutive <- 1
    | [ _ ] -> c.consecutive <- 1
    | _ -> c.consecutive <- c.consecutive + 1);
    if List.length c.crash_times > t.policy.max_restarts then begin
      c.given_up <- true;
      lifecycle c "give-up"
        (Printf.sprintf "%d crashes in %.0fs"
           (List.length c.crash_times)
           t.policy.intensity_window)
    end
    else if not c.pending then begin
      c.pending <- true;
      attempt t c ~delay_s:(backoff_s t c)
    end
  end

let supervise t ~name ?(on_restart = fun () -> ()) proc =
  let c =
    {
      child_name = name;
      proc;
      on_restart;
      crash_times = [];
      consecutive = 0;
      given_up = false;
      pending = false;
      total_restarts = 0;
    }
  in
  t.children <- t.children @ [ c ];
  Process.on_crash proc (fun () -> on_child_crash t c)

let find t ~name =
  List.find_opt (fun c -> String.equal c.child_name name) t.children

(* Point an existing child at a replacement process (migration: the old
   process's machine died and the router was rebuilt elsewhere).  The
   child keeps its crash history and restart budget; any restart attempt
   still pending against the dead process stands down on its own, since
   [attempt] sees the adopted process alive. *)
let adopt t ~name proc =
  match find t ~name with
  | None -> invalid_arg (Printf.sprintf "Supervisor.adopt: unknown child %S" name)
  | Some c ->
      c.proc <- proc;
      c.child_name <- Process.name proc;
      lifecycle c "adopt" (Printf.sprintf "was %S" name);
      Process.on_crash proc (fun () -> on_child_crash t c)

let state t ~name =
  match find t ~name with
  | None -> None
  | Some c ->
      Some
        (if c.given_up then `Given_up
         else if Process.alive c.proc then `Running
         else `Waiting)

let restarts t ~name =
  match find t ~name with None -> 0 | Some c -> c.total_restarts

let given_up t =
  List.filter_map
    (fun c -> if c.given_up then Some c.child_name else None)
    t.children

let children t = List.map (fun c -> c.child_name) t.children
