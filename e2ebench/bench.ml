(* The end-to-end benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One process, one domain, no threads.  A run repeats the workload's
   experiment ("a repetition": set-up, then the measured sim-time window,
   then the output checks) until the measured windows add up to
   [--seconds] of wall time, then sets up alone until it holds enough
   set-up samples.  Every repetition of one seed simulates exactly the
   same thing, so each one's output digest must equal the first's.

   The last line of standard output is the JSON report.  With --trace 0
   it holds the end-to-end metrics; with --trace 1 (a separate run) the
   per-layer metrics, and the spans recorded around every public call and
   every sim-time window are written as Chrome trace-event JSON under
   e2ebench/_out/. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Profile = Vini_sim.Profile
module Json = Vini_std.Json
module W = Workloads

(* Fixed here so the environment (OCAMLRUNPARAM) cannot change them: the
   OCaml 5.1 defaults, stated explicitly. *)
let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let now = Unix.gettimeofday
let origin = now ()

(* ---- spans (traced run only), kept in memory until the end ------------ *)

type span = { s_name : string; s_cat : string; s_rep : int; s_t0 : float; s_dur : float }

let spans : span list ref = ref []

let record ~traced ~cat ~rep name t0 dur =
  if traced then
    spans := { s_name = name; s_cat = cat; s_rep = rep; s_t0 = t0; s_dur = dur } :: !spans

let timed ~traced ~cat ~rep name f =
  let t0 = now () in
  let r = f () in
  let dur = now () -. t0 in
  record ~traced ~cat ~rep name t0 dur;
  (r, dur)

let write_trace ~path ~workload ~seed =
  let us t = Json.Num (Float.round (t *. 1e7) /. 10.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.s_name);
        ("cat", Json.Str s.s_cat);
        ("ph", Json.Str "X");
        ("ts", us (s.s_t0 -. origin));
        ("dur", us s.s_dur);
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.s_rep));
      ]
  in
  let doc =
    Json.Obj
      [
        ("displayTimeUnit", Json.Str "ms");
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("traceEvents", Json.Arr (List.rev_map event !spans));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc

(* ---- statistics -------------------------------------------------------- *)

let sorted l = List.sort Float.compare l

(* Linear interpolation between closest ranks; [q] in [0,1]. *)
let quantile q l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5

(* ---- one repetition ---------------------------------------------------- *)

type rep = {
  setup_s : float;
  phases : (string * float) list;  (** set-up phase -> wall seconds *)
  sim_s : float;
  wall_s : float;
  windows : (bool * float) list;  (** (contains a fault, wall seconds) *)
  events : int;
  inlined : int;
  max_pending : int;
  minor_words : float;
  major_collections : int;
  callback_us : float;
  outcome : W.outcome;
  export_ms : float;
  heap_top_words : int;  (** process peak so far, read after the checks *)
}

let setup_phase ~traced ~short ~rep (wl : W.t) ~seed =
  let phases = Hashtbl.create 8 in
  let timer =
    {
      W.time =
        (fun name f ->
          let r, dur = timed ~traced ~cat:"setup" ~rep ("setup." ^ name) f in
          let prev = Option.value (Hashtbl.find_opt phases name) ~default:0.0 in
          Hashtbl.replace phases name (prev +. dur);
          r);
    }
  in
  Gc.compact ();
  let inst, setup_s = timed ~traced ~cat:"setup" ~rep "setup" (fun () -> wl.W.setup ~seed ~short timer) in
  (inst, setup_s, List.map (fun p -> (p, Option.value (Hashtbl.find_opt phases p) ~default:0.0))
                    [ "topo"; "underlay"; "deploy"; "start"; "converge" ])

(* The traced run installs the runtime profiler in every repetition; the
   engine's own profiling, which turns breath inlining off, only in one
   extra repetition ([engine_profiling]) that feeds nothing but
   [sim.callback_us_mean]. *)
let run_rep ~traced ~short ?(engine_profiling = false) ~rep (wl : W.t) ~seed =
  let profile = Profile.create () in
  if traced then Profile.install profile;
  let inst, setup_s, phases = setup_phase ~traced ~short ~rep wl ~seed in
  let engine = inst.W.engine in
  Engine.set_profiling engine engine_profiling;
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let ev0 = Engine.events_fired engine and in0 = Engine.events_inlined engine in
  let windows = ref [] in
  let t0 = now () in
  let t = ref inst.W.start in
  while Time.( < ) !t inst.W.stop do
    let next = Time.min (Time.add !t inst.W.slice) inst.W.stop in
    let (), dt =
      timed ~traced ~cat:"run" ~rep "run.window" (fun () -> inst.W.advance next)
    in
    let lo = !t in
    let fault = List.exists (fun f -> Time.( > ) f lo && Time.( <= ) f next) inst.W.faults in
    windows := (fault, dt) :: !windows;
    t := next
  done;
  let wall_s = now () -. t0 in
  record ~traced ~cat:"run" ~rep "run" t0 wall_s;
  let gc1 = Gc.quick_stat () in
  let events = Engine.events_fired engine - ev0 in
  let inlined = Engine.events_inlined engine - in0 in
  let callback_us =
    let h = Engine.callback_hist engine in
    if engine_profiling && Vini_std.Histogram.count h > 0 then
      Vini_std.Histogram.mean h *. 1e6
    else 0.0
  in
  let outcome, _ = timed ~traced ~cat:"check" ~rep "finish" inst.W.finish in
  let export_ms =
    if traced then
      let _, dt = timed ~traced ~cat:"measure" ~rep "export" inst.W.export in
      dt *. 1e3
    else 0.0
  in
  if traced then Profile.uninstall ();
  {
    setup_s;
    phases;
    sim_s = Time.to_sec_f (Time.sub inst.W.stop inst.W.start);
    wall_s;
    windows = List.rev !windows;
    events;
    inlined;
    max_pending = Engine.max_pending engine;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    callback_us;
    outcome;
    export_ms;
    heap_top_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* ---- the run ------------------------------------------------------------ *)

(* Every repetition simulates the same windows, so each window's wall time
   is taken as its minimum over the repetitions.  On a shared host the
   same window's time moves by a quarter from one repetition to the next,
   and interference only ever adds time: the minimum over identical
   repetitions estimates the undisturbed cost, where a median still
   carries whichever slow phase the run happened to meet. *)
let sim_rate reps =
  let walls = List.map (fun r -> Array.of_list (List.map snd r.windows)) reps in
  let n = Array.length (List.hd walls) in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. List.fold_left (fun m w -> Float.min m w.(i)) infinity walls
  done;
  (List.hd reps).sim_s /. !total

(* Set-up is timed over at least this many samples and this much wall
   time, so its median does not rest on one short region.  Three
   repetitions at least, so the per-window minimum has a choice. *)
let min_setup_samples = 7
let min_setup_wall = 3.0
let min_reps = 3

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.W.name) W.all)
    ^ "} --seed N --seconds S --trace 0|1 [--short]");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let short = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        go rest
    | "--short" :: rest -> short := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some tr when secs > 0.0 -> (
      match List.find_opt (fun x -> x.W.name = w) W.all with
      | Some wl -> (wl, s, secs, tr, !short)
      | None -> usage ())
  | _ -> usage ()

let () =
  let wl, seed, seconds, traced, short = parse_args () in
  let reps = ref [] in
  let measured = ref 0.0 in
  (* --short (smoke runs): a tenth of each window, two repetitions so the
     digest is still compared, and no set-up quota. *)
  let min_reps = if short then 2 else min_reps in
  let min_setup_samples, min_setup_wall =
    if short then (0, 0.0) else (min_setup_samples, min_setup_wall)
  in
  while !measured < seconds || List.length !reps < min_reps do
    let r = run_rep ~traced ~short ~rep:(List.length !reps + 1) wl ~seed in
    measured := !measured +. r.wall_s;
    reps := r :: !reps;
    Printf.eprintf "%s seed %d rep %d: setup %.3f s, %.1f sim s in %.3f s (%.3f sim s/s)\n%!"
      wl.W.name seed (List.length !reps) r.setup_s r.sim_s r.wall_s (r.sim_s /. r.wall_s)
  done;
  let reps = List.rev !reps in
  let setups = ref (List.map (fun r -> r.setup_s) reps) in
  let phase_samples = ref (List.map (fun r -> r.phases) reps) in
  let rep_no = ref (List.length reps) in
  while
    List.length !setups < min_setup_samples || List.fold_left ( +. ) 0.0 !setups < min_setup_wall
  do
    incr rep_no;
    let _, s, phases = setup_phase ~traced ~short ~rep:!rep_no wl ~seed in
    setups := s :: !setups;
    phase_samples := phases :: !phase_samples
  done;
  let profiled =
    if traced then
      [ run_rep ~traced ~short ~engine_profiling:true ~rep:(!rep_no + 1) wl ~seed ]
    else []
  in
  let first = List.hd reps in
  let failed_reps =
    List.filter
      (fun r ->
        r.outcome.W.digest <> first.outcome.W.digest
        || List.exists (fun (_, ok, _) -> not ok) r.outcome.W.checks)
      (reps @ profiled)
  in
  List.iter
    (fun (name, ok, detail) ->
      Printf.eprintf "check %-24s %s  %s\n" name (if ok then "ok" else "FAILED") detail)
    first.outcome.W.checks;
  List.iteri
    (fun i r ->
      if r.outcome.W.digest <> first.outcome.W.digest then
        Printf.eprintf "check determinism FAILED: rep %d digest %s <> %s\n" (i + 1)
          r.outcome.W.digest first.outcome.W.digest)
    (reps @ profiled);
  let med f = median (List.map f reps) in
  let metrics =
    if not traced then
      [
        ("sim_s_per_wall_s", sim_rate reps, "sim_s/s");
        ("setup_s", median !setups, "s");
        (* The first repetition's peak: one experiment from a fresh
           process, as a user runs it. *)
        ("heap_peak_mb", float_of_int (first.heap_top_words * (Sys.word_size / 8)) /. 1e6, "MB");
      ]
    else begin
      let phase p = median (List.map (fun ph -> List.assoc p ph) !phase_samples) *. 1e3 in
      let all_windows = List.concat_map (fun r -> r.windows) reps in
      let window_ms sel =
        match List.filter_map (fun (f, dt) -> if sel f then Some (dt *. 1e3) else None) all_windows with
        | [] -> (0.0, 0.0)
        | l -> (median l, quantile 0.99 l)
      in
      let p50, p99 = window_ms (fun _ -> true) in
      let fault_p50, _ = window_ms Fun.id in
      let quiet_p50, _ = window_ms not in
      let per_sim f = med (fun r -> f r /. r.sim_s) in
      let path = Printf.sprintf "e2ebench/_out/trace-%s-s%d.json" wl.W.name seed in
      (try Unix.mkdir "e2ebench/_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_trace ~path ~workload:wl.W.name ~seed;
      Printf.eprintf "trace written to %s (%d spans)\n" path (List.length !spans);
      [
        ("trace.sim_s_per_wall_s", sim_rate reps, "sim_s/s");
        ("setup.topo_ms", phase "topo", "ms");
        ("setup.underlay_ms", phase "underlay", "ms");
        ("setup.deploy_ms", phase "deploy", "ms");
        ("setup.start_ms", phase "start", "ms");
        ("setup.converge_ms", phase "converge", "ms");
        ("sim.events_per_sim_s", per_sim (fun r -> float_of_int r.events), "1/s");
        ( "sim.inline_ratio",
          float_of_int first.inlined /. float_of_int (max 1 first.events),
          "ratio" );
        ("sim.max_pending", float_of_int first.max_pending, "count");
        ("sim.host_ns_per_event", med (fun r -> r.wall_s *. 1e9 /. float_of_int (max 1 r.events)), "ns");
        ("sim.callback_us_mean", median (List.map (fun r -> r.callback_us) profiled), "us");
        ("run.window_ms_p50", p50, "ms");
        ("run.window_ms_p99", p99, "ms");
        ("run.fault_window_ms_p50", fault_p50, "ms");
        ("run.quiet_window_ms_p50", quiet_p50, "ms");
      ]
      @ first.outcome.W.counters
      @ [
          ("gc.minor_mwords_per_sim_s", per_sim (fun r -> r.minor_words /. 1e6), "Mwords/s");
          ("gc.major_collections", med (fun r -> float_of_int r.major_collections), "count");
          ("measure.export_ms", med (fun r -> r.export_ms), "ms");
        ]
    end
  in
  Printf.printf "digest %s\n" first.outcome.W.digest;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed_reps = []) (List.length reps + List.length profiled) (List.length failed_reps)
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))
