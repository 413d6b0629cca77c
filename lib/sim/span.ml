(* The per-packet flight recorder: the hot half.

   Instrumented layers (click elements, links, CPU slices, tunnels) append
   flat records — origin / hop / drop — into a bounded ring; everything
   tree-shaped (causal reassembly, latency attribution, drop forensics)
   happens offline in [Vini_measure.Span].  Keeping this half flat and
   append-only is what makes the enabled path one ring write and the
   disabled path one load of the installed-recorder ref. *)

type attribution =
  | Queueing
  | Cpu_service
  | Propagation
  | Serialization
  | Proto_processing

let attribution_name = function
  | Queueing -> "queueing"
  | Cpu_service -> "cpu_service"
  | Propagation -> "propagation"
  | Serialization -> "serialization"
  | Proto_processing -> "proto_processing"

let attribution_of_name = function
  | "queueing" -> Some Queueing
  | "cpu_service" -> Some Cpu_service
  | "propagation" -> Some Propagation
  | "serialization" -> Some Serialization
  | "proto_processing" -> Some Proto_processing
  | _ -> None

let attributions =
  [ Queueing; Cpu_service; Propagation; Serialization; Proto_processing ]

type record =
  | Origin of {
      pkt : int;
      orig : int;
      bytes : int;
      component : string;
      t : Time.t;
    }
  | Hop of {
      pkt : int;
      orig : int;
      component : string;
      attribution : attribution;
      t0 : Time.t;
      t1 : Time.t;
    }
  | Drop of {
      pkt : int;
      orig : int;
      component : string;
      reason : string;
      bytes : int;
      t : Time.t;
    }

type t = {
  buf : record array;
  capacity : int;
  mutable head : int; (* oldest retained record *)
  mutable len : int;
  mutable overwritten : int;
  pending : (int, Time.t) Hashtbl.t; (* packet id -> enqueue time *)
}

let default_capacity = 262_144

let dummy = Origin { pkt = 0; orig = 0; bytes = 0; component = ""; t = Time.zero }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  {
    buf = Array.make capacity dummy;
    capacity;
    head = 0;
    len = 0;
    overwritten = 0;
    pending = Hashtbl.create 256;
  }

(* -- the installed global recorder --------------------------------------- *)

let recorder_ref : t option ref = ref None

let install t = recorder_ref := Some t
let uninstall () = recorder_ref := None
let on () = match !recorder_ref with Some _ -> true | None -> false

let push t r =
  if t.len = t.capacity then begin
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod t.capacity;
    t.overwritten <- t.overwritten + 1
  end
  else begin
    t.buf.((t.head + t.len) mod t.capacity) <- r;
    t.len <- t.len + 1
  end

let emit r =
  match !recorder_ref with None -> () | Some t -> push t r

(* -- emitters (callers guard with [on ()] first) ------------------------- *)

let origin ~pkt ~orig ~bytes ~component () =
  emit (Origin { pkt; orig; bytes; component; t = Trace.now () })

let hop ~pkt ~orig ~component attribution ~t0 ~t1 =
  emit (Hop { pkt; orig; component; attribution; t0; t1 })

let instant ~pkt ~orig ~component attribution =
  let t = Trace.now () in
  emit (Hop { pkt; orig; component; attribution; t0 = t; t1 = t })

let drop ~pkt ~orig ~component ~reason ~bytes () =
  (match !recorder_ref with
  | None -> ()
  | Some t -> Hashtbl.remove t.pending pkt);
  emit (Drop { pkt; orig; component; reason; bytes; t = Trace.now () })

(* -- queue-wait helpers ---------------------------------------------------

   Queues (Click fifo/shaper, HTB classes, socket buffers, process run
   queues) record their wait as enqueue-time bookkeeping here rather than
   threading timestamps through every queue element.  Keyed by packet id:
   the simulation holds a given packet in at most one queue at a time on
   the data path (a tee duplicating into two queues shares the id, in
   which case one wait wins — an accepted imprecision). *)

let note_enqueue ~pkt =
  match !recorder_ref with
  | None -> ()
  | Some t -> Hashtbl.replace t.pending pkt (Trace.now ())

let dequeue_hop ~pkt ~orig ~component ?until () =
  match !recorder_ref with
  | None -> ()
  | Some t -> (
      match Hashtbl.find_opt t.pending pkt with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove t.pending pkt;
          let t1 = match until with Some u -> u | None -> Trace.now () in
          if Time.compare t1 t0 > 0 then
            push t
              (Hop { pkt; orig; component; attribution = Queueing; t0; t1 }))

(* -- inspection ----------------------------------------------------------- *)

let length t = t.len
let capacity t = t.capacity
let overwritten t = t.overwritten

let records t =
  List.init t.len (fun i -> t.buf.((t.head + i) mod t.capacity))

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.overwritten <- 0;
  Hashtbl.reset t.pending

let record_pkt = function
  | Origin { pkt; _ } | Hop { pkt; _ } | Drop { pkt; _ } -> pkt

let record_orig = function
  | Origin { orig; _ } | Hop { orig; _ } | Drop { orig; _ } -> orig

