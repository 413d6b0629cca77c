(* The runtime self-profiler: per-element-class CPU attribution for the
   data plane, with collapsed call paths.

   As with the flight recorder ([Span.on]), the gate is a single
   global [bool ref], true exactly while a profile is installed, so every
   instrumented hot path pays one load + test when profiling is off.
   Unlike [Engine.set_profiling], installing a profile never changes the
   event schedule — it only records — so a seeded run is byte-identical
   with the profiler on or off. *)

(* ---- element-class registry (global, survives install/uninstall) ------ *)

let class_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let class_names = ref (Array.make 16 "")
let nclasses = ref 0

let class_id name =
  match Hashtbl.find_opt class_tbl name with
  | Some id -> id
  | None ->
      let id = !nclasses in
      if id >= Array.length !class_names then begin
        let bigger = Array.make (2 * Array.length !class_names) "" in
        Array.blit !class_names 0 bigger 0 (Array.length !class_names);
        class_names := bigger
      end;
      !class_names.(id) <- name;
      Hashtbl.add class_tbl name id;
      incr nclasses;
      id

(* ---- the profile record ------------------------------------------------ *)

(* Element call stacks never get deep (a click chain is a handful of
   elements); past the cap we keep per-class packet counts but stop
   growing paths. *)
let max_stack = 64

type t = {
  mutable cls_packets : int array; (* packets offered, by class id *)
  stack : int array; (* class ids of the live element frames *)
  path_at : int array; (* interned path id per live frame *)
  had_child : bool array;
  mutable depth : int;
  mutable overflow : int; (* frames dropped past [max_stack] *)
  path_tbl : (int, int) Hashtbl.t; (* (parent<<16 | class) -> path id *)
  mutable path_parent : int array;
  mutable path_class : int array;
  mutable path_cost : float array; (* attributed sim seconds, leaf paths *)
  mutable path_count : int array;
  mutable npaths : int;
}

let create () =
  {
    cls_packets = Array.make 16 0;
    stack = Array.make max_stack 0;
    path_at = Array.make max_stack (-1);
    had_child = Array.make max_stack false;
    depth = 0;
    overflow = 0;
    path_tbl = Hashtbl.create 64;
    path_parent = Array.make 16 (-1);
    path_class = Array.make 16 0;
    path_cost = Array.make 16 0.0;
    path_count = Array.make 16 0;
    npaths = 0;
  }

(* ---- the installed profile and its gate -------------------------------- *)

let installed : t option ref = ref None

(* The one-load-and-test gate every instrumented hot path checks. *)
let gate = ref false

let install p =
  installed := Some p;
  gate := true

let uninstall () =
  installed := None;
  gate := false

let current () = !installed

(* ---- array growth helpers --------------------------------------------- *)

let grow_int a n =
  let bigger = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let grow_float a n =
  let bigger = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let ensure_class p id =
  if id >= Array.length p.cls_packets then
    p.cls_packets <- grow_int p.cls_packets (id + 1)

(* ---- element attribution ----------------------------------------------- *)

(* The sim-time CPU cost of the packet currently in service, set by the
   CPU scheduler ([Process]) around each handler invocation and
   attributed to the element path the packet traverses.  Zero outside a
   service slice (e.g. a kernel-path push), which still counts packets
   per class. *)
let service_cost = ref 0.0

let set_service_cost c = service_cost := c
let clear_service_cost () = service_cost := 0.0

let intern_path p ~parent cls =
  let key = (parent lsl 16) lor (cls land 0xFFFF) in
  (* [find], not [find_opt]: the steady state (path already interned)
     must not allocate an option per packet. *)
  match Hashtbl.find p.path_tbl key with
  | id -> id
  | exception Not_found ->
      let id = p.npaths in
      if id >= Array.length p.path_parent then begin
        p.path_parent <- grow_int p.path_parent (id + 1);
        p.path_class <- grow_int p.path_class (id + 1);
        p.path_cost <- grow_float p.path_cost (id + 1);
        p.path_count <- grow_int p.path_count (id + 1)
      end;
      p.path_parent.(id) <- parent;
      p.path_class.(id) <- cls;
      p.path_cost.(id) <- 0.0;
      p.path_count.(id) <- 0;
      p.npaths <- p.npaths + 1;
      Hashtbl.add p.path_tbl key id;
      id

let enter cls ~packets =
  match !installed with
  | None -> ()
  | Some p ->
      ensure_class p cls;
      p.cls_packets.(cls) <- p.cls_packets.(cls) + packets;
      if p.depth >= max_stack then p.overflow <- p.overflow + 1
      else begin
        let d = p.depth in
        if d > 0 then p.had_child.(d - 1) <- true;
        let parent = if d = 0 then -1 else p.path_at.(d - 1) in
        p.stack.(d) <- cls;
        p.path_at.(d) <- intern_path p ~parent cls;
        p.had_child.(d) <- false;
        p.depth <- d + 1
      end

let leave cls =
  match !installed with
  | None -> ()
  | Some p ->
      if p.depth > max_stack || p.depth = 0 then begin
        if p.overflow > 0 then p.overflow <- p.overflow - 1
      end
      else begin
        let d = p.depth - 1 in
        (* Tolerate a mismatched leave (an element handler that raised
           and was caught upstream): unwind to the matching frame. *)
        if p.stack.(d) = cls then begin
          p.depth <- d;
          if not p.had_child.(d) then begin
            (* A leaf frame: the packet's traversal ended here, so the
               whole service cost lands on this collapsed path. *)
            let pid = p.path_at.(d) in
            p.path_cost.(pid) <- p.path_cost.(pid) +. !service_cost;
            p.path_count.(pid) <- p.path_count.(pid) + 1
          end
        end
        else p.depth <- d
      end

(* ---- read-side --------------------------------------------------------- *)

let element_packets_total p = Array.fold_left ( + ) 0 p.cls_packets

let path_string p id =
  let rec go id acc =
    if id < 0 then acc
    else
      let name = !class_names.(p.path_class.(id)) in
      go p.path_parent.(id) (if acc = "" then name else name ^ ";" ^ acc)
  in
  go id ""

(* Collapsed stacks, flamegraph semantics: each line is a full root-to-
   leaf element path with the sim seconds (and packet count) attributed
   exactly there; a class's total time is the sum over lines containing
   it, its self time the sum over lines where it is the leaf. *)
let collapsed p =
  let acc = ref [] in
  for id = p.npaths - 1 downto 0 do
    if p.path_count.(id) > 0 then
      acc := (path_string p id, p.path_cost.(id), p.path_count.(id)) :: !acc
  done;
  !acc

type element_row = {
  er_class : string;
  er_packets : int;
  er_self_s : float;
  er_total_s : float;
}

let element_rows p =
  let n = !nclasses in
  let self = Array.make n 0.0 and total = Array.make n 0.0 in
  for id = 0 to p.npaths - 1 do
    if p.path_count.(id) > 0 then begin
      let c = p.path_cost.(id) in
      self.(p.path_class.(id)) <- self.(p.path_class.(id)) +. c;
      (* Walk ancestors once per class occurrence: a class repeated along
         the path must not be double-counted in its total. *)
      let seen = ref [] in
      let rec up j =
        if j >= 0 then begin
          let cls = p.path_class.(j) in
          if not (List.mem cls !seen) then begin
            seen := cls :: !seen;
            total.(cls) <- total.(cls) +. c
          end;
          up p.path_parent.(j)
        end
      in
      up id
    end
  done;
  let rows = ref [] in
  for id = n - 1 downto 0 do
    if
      (id < Array.length p.cls_packets && p.cls_packets.(id) > 0)
      || total.(id) > 0.0
    then
      rows :=
        {
          er_class = !class_names.(id);
          er_packets =
            (if id < Array.length p.cls_packets then p.cls_packets.(id) else 0);
          er_self_s = self.(id);
          er_total_s = total.(id);
        }
        :: !rows
  done;
  List.sort (fun a b -> compare b.er_total_s a.er_total_s) !rows

let attributed_cost_s p =
  let s = ref 0.0 in
  for id = 0 to p.npaths - 1 do
    s := !s +. p.path_cost.(id)
  done;
  !s
