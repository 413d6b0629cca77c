(* Conservative windowed coordinator.  See the .mli for the synchronization
   argument; the invariant everything rests on is that outboxes are drained
   only here, between windows, so during horizon computation nothing is in
   flight and [Shard.next_time] is each shard's true earliest action. *)

type t = {
  shards : Shard.t array;
  ndomains : int;
  la : Time.t option array array; (* la.(src).(dst); sampled at create *)
  mutable windows : int;
  mutable delivered : int;
}

let max_time = Time.max_value

(* Saturating add for horizon + lookahead: both operands are >= 0, and a
   horizon of [max_time] must stay there rather than wrap negative. *)
let add_sat a b =
  let s = Time.add a b in
  if Time.compare s a < 0 then max_time else s

let create ?(seed = 42) ?(mailbox_capacity = 8192) ~shards ~domains ~lookahead
    () =
  if shards < 1 then invalid_arg "Coordinator.create: shards < 1";
  if domains < 1 then invalid_arg "Coordinator.create: domains < 1";
  if mailbox_capacity < 1 then
    invalid_arg "Coordinator.create: mailbox_capacity < 1";
  let la =
    Array.init shards (fun src ->
        Array.init shards (fun dst ->
            if src = dst then None
            else
              match lookahead src dst with
              | None -> None
              | Some l ->
                  if Time.compare l Time.zero <= 0 then
                    invalid_arg
                      (Printf.sprintf
                         "Coordinator.create: lookahead %d -> %d is not \
                          positive"
                         src dst)
                  else Some l))
  in
  let la_fn src dst = la.(src).(dst) in
  let root = Vini_std.Rng.create seed in
  let shards_arr =
    Array.init shards (fun id ->
        Shard.make ~id ~nshards:shards ~mailbox_capacity ~lookahead:la_fn
          ~rng:(Vini_std.Rng.split root))
  in
  { shards = shards_arr; ndomains = min domains shards; la; windows = 0; delivered = 0 }

let shard t i = t.shards.(i)
let nshards t = Array.length t.shards
let domains t = t.ndomains

(* Barrier: posts first (ascending destination, then ascending source,
   FIFO within each pair), cancellations second so a post cancelled in the
   same window is skipped by [Shard.deliver] before its cancel request is
   seen. *)
let drain_barrier t =
  let n = Array.length t.shards in
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      if src <> dst then
        t.delivered <-
          t.delivered
          + Vini_std.Mailbox.drain
              (Shard.outbox t.shards.(src) dst)
              (Shard.deliver t.shards.(dst))
    done
  done;
  Array.iter
    (fun s -> List.iter Shard.apply_remote_cancel (Shard.take_cancel_requests s))
    t.shards

(* Least fixpoint of ĥ(s) = min(h(s), min_p (ĥ(p) + L(p,s))) by
   relaxation.  Positive lookaheads make it converge within [n] passes. *)
let horizons t =
  let n = Array.length t.shards in
  let h = Array.map Shard.next_time t.shards in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    incr pass;
    for s = 0 to n - 1 do
      for p = 0 to n - 1 do
        if p <> s then
          match (t.la.(p).(s), h.(p)) with
          | Some l, Some hp ->
              let cand = add_sat hp l in
              (match h.(s) with
              | Some hs when Time.compare cand hs >= 0 -> ()
              | _ ->
                  h.(s) <- Some cand;
                  changed := true)
          | _ -> ()
      done
    done
  done;
  h

let bounds t h =
  let n = Array.length t.shards in
  Array.init n (fun s ->
      let b = ref max_time in
      for p = 0 to n - 1 do
        if p <> s then
          match (t.la.(p).(s), h.(p)) with
          | Some l, Some hp ->
              let cand = add_sat hp l in
              if Time.compare cand !b < 0 then b := cand
          | _ -> ()
      done;
      !b)

(* Domain pool: lane 0 is the calling domain, lanes 1..n-1 are workers
   woken per window by a round counter.  Mutex/Condition rather than
   atomic spin-wait: on machines with fewer cores than domains a spinning
   lane steals the cycles the working lanes need. *)
type pool = {
  mu : Mutex.t;
  go : Condition.t;
  all_done : Condition.t;
  mutable round : int;
  mutable done_count : int;
  mutable stop : bool;
  mutable bounds : Time.t array;
  mutable limit : Time.t option;
  mutable error : exn option;
  nlanes : int;
}

let events_fired t =
  Array.fold_left (fun acc s -> acc + Shard.events_fired s) 0 t.shards

let exec_lane t pool lane =
  let n = Array.length t.shards in
  let s = ref lane in
  while !s < n do
    Shard.exec_window t.shards.(!s) ~bound:pool.bounds.(!s) ~limit:pool.limit;
    s := !s + pool.nlanes
  done

let worker t pool lane =
  let rec loop last =
    Mutex.lock pool.mu;
    while pool.round = last && not pool.stop do
      Condition.wait pool.go pool.mu
    done;
    let stop = pool.stop in
    let round = pool.round in
    Mutex.unlock pool.mu;
    if not stop then begin
      (try exec_lane t pool lane
       with e ->
         Mutex.lock pool.mu;
         if pool.error = None then pool.error <- Some e;
         Mutex.unlock pool.mu);
      Mutex.lock pool.mu;
      pool.done_count <- pool.done_count + 1;
      if pool.done_count = pool.nlanes - 1 then Condition.signal pool.all_done;
      Mutex.unlock pool.mu;
      loop round
    end
  in
  loop 0

let run ?until t =
  let n = Array.length t.shards in
  let nlanes = t.ndomains in
  let pool =
    {
      mu = Mutex.create ();
      go = Condition.create ();
      all_done = Condition.create ();
      round = 0;
      done_count = 0;
      stop = false;
      bounds = [||];
      limit = until;
      error = None;
      nlanes;
    }
  in
  let workers =
    if nlanes <= 1 then [||]
    else Array.init (nlanes - 1) (fun i -> Domain.spawn (fun () -> worker t pool (i + 1)))
  in
  let shutdown () =
    if nlanes > 1 then begin
      Mutex.lock pool.mu;
      pool.stop <- true;
      Condition.broadcast pool.go;
      Mutex.unlock pool.mu
    end;
    Array.iter Domain.join workers
  in
  let finish_at_until () =
    match until with
    | Some u -> Array.iter (fun s -> Shard.advance_clock s u) t.shards
    | None -> ()
  in
  (* Profiler scaffolding, allocated only when a profile is installed:
     the static lookahead floor and a scratch array for per-window
     events-fired deltas. *)
  if !Profile.gate then begin
    let fl = ref max_time in
    Array.iter
      (Array.iter (function
        | Some l -> if Time.compare l !fl < 0 then fl := l
        | None -> ()))
      t.la;
    if Time.compare !fl max_time < 0 then
      Profile.note_floor ~width_s:(Time.to_sec_f !fl)
  end;
  let scratch =
    if !Profile.gate then
      Array.init n (fun i -> Shard.events_fired t.shards.(i))
    else [||]
  in
  let rec window_loop () =
    drain_barrier t;
    let h = Array.map Shard.next_time t.shards in
    let tmin =
      Array.fold_left
        (fun acc ht ->
          match (acc, ht) with
          | None, x | x, None -> x
          | Some a, Some b -> Some (Time.min a b))
        None h
    in
    match tmin with
    | None -> finish_at_until ()
    | Some tmin
      when match until with
           | Some u -> Time.compare tmin u > 0
           | None -> false ->
        finish_at_until ()
    | Some tm ->
        let hhat = horizons t in
        pool.bounds <- bounds t hhat;
        let wfired = if !Profile.gate then events_fired t else 0 in
        if !Profile.gate then
          for s = 0 to n - 1 do
            Profile.note_queue_depth ~shard:s (Shard.pending t.shards.(s))
          done;
        if nlanes <= 1 then
          for s = 0 to n - 1 do
            Shard.exec_window t.shards.(s) ~bound:pool.bounds.(s)
              ~limit:pool.limit
          done
        else begin
          Mutex.lock pool.mu;
          pool.done_count <- 0;
          pool.round <- pool.round + 1;
          Condition.broadcast pool.go;
          Mutex.unlock pool.mu;
          (try exec_lane t pool 0
           with e ->
             Mutex.lock pool.mu;
             if pool.error = None then pool.error <- Some e;
             Mutex.unlock pool.mu);
          Mutex.lock pool.mu;
          (* Barrier wait: host seconds lane 0 blocks for the slowest
             worker lane.  Wall-clock by nature, so export-only telemetry
             (never byte-compared); see profile.mli. *)
          let w0 = if !Profile.gate then Unix.gettimeofday () else 0.0 in
          while pool.done_count < nlanes - 1 do
            Condition.wait pool.all_done pool.mu
          done;
          if !Profile.gate then
            Profile.note_barrier_wait (Unix.gettimeofday () -. w0);
          Mutex.unlock pool.mu
        end;
        t.windows <- t.windows + 1;
        if !Profile.gate then begin
          (* Granted window = tightest finite bound minus the window base
             (the horizon relaxation's actual grant, to compare against
             the plink floor); plus per-shard events-fired deltas. *)
          let minb = Array.fold_left Time.min max_time pool.bounds in
          let width_s =
            if Time.compare minb max_time < 0 then
              Time.to_sec_f (Time.sub minb tm)
            else 0.0
          in
          Profile.note_window ~width_s ~events:(events_fired t - wfired);
          for s = 0 to n - 1 do
            let f = Shard.events_fired t.shards.(s) in
            Profile.note_shard_events ~shard:s (f - scratch.(s));
            scratch.(s) <- f
          done
        end;
        (match pool.error with Some _ -> () | None -> window_loop ())
  in
  (try window_loop ()
   with e ->
     shutdown ();
     raise e);
  shutdown ();
  match pool.error with Some e -> raise e | None -> ()

let now t =
  Array.fold_left (fun acc s -> Time.min acc (Shard.now s)) max_time t.shards

let pending t = Array.fold_left (fun acc s -> acc + Shard.pending s) 0 t.shards

let events_cancelled t =
  Array.fold_left (fun acc s -> acc + Shard.events_cancelled s) 0 t.shards

let posts_sent t =
  Array.fold_left (fun acc s -> acc + Shard.posts_sent s) 0 t.shards

let windows t = t.windows
let messages_delivered t = t.delivered
