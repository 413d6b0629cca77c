type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

module Category = struct
  type t =
    | Packet_tx
    | Packet_rx
    | Packet_drop
    | Route_update
    | Sched_latency
    | Fault_injected
    | Process_lifecycle
    | Watchdog
    | Custom

  let all =
    [ Packet_tx; Packet_rx; Packet_drop; Route_update; Sched_latency;
      Fault_injected; Process_lifecycle; Watchdog; Custom ]

  let bit = function
    | Packet_tx -> 1
    | Packet_rx -> 2
    | Packet_drop -> 4
    | Route_update -> 8
    | Sched_latency -> 16
    | Fault_injected -> 32
    | Custom -> 64
    | Process_lifecycle -> 128
    | Watchdog -> 256

  let name = function
    | Packet_tx -> "packet_tx"
    | Packet_rx -> "packet_rx"
    | Packet_drop -> "packet_drop"
    | Route_update -> "route_update"
    | Sched_latency -> "sched_latency"
    | Fault_injected -> "fault_injected"
    | Process_lifecycle -> "process_lifecycle"
    | Watchdog -> "watchdog"
    | Custom -> "custom"

  let of_name = function
    | "packet_tx" -> Some Packet_tx
    | "packet_rx" -> Some Packet_rx
    | "packet_drop" -> Some Packet_drop
    | "route_update" -> Some Route_update
    | "sched_latency" -> Some Sched_latency
    | "fault_injected" -> Some Fault_injected
    | "process_lifecycle" -> Some Process_lifecycle
    | "watchdog" -> Some Watchdog
    | "custom" -> Some Custom
    | _ -> None

  let mask_of cats = List.fold_left (fun m c -> m lor bit c) 0 cats
end

type kind =
  | Packet_tx of { bytes : int }
  | Packet_rx of { bytes : int }
  | Packet_drop of { reason : string; bytes : int }
  | Route_update of { prefix : string; action : string }
  | Sched_latency of { seconds : float }
  | Fault_injected of { action : string }
  | Process_lifecycle of { phase : string; detail : string }
  | Watchdog_check of { check : string; detail : string }
  | Custom of string

let category_of_kind : kind -> Category.t = function
  | Packet_tx _ -> Category.Packet_tx
  | Packet_rx _ -> Category.Packet_rx
  | Packet_drop _ -> Category.Packet_drop
  | Route_update _ -> Category.Route_update
  | Sched_latency _ -> Category.Sched_latency
  | Fault_injected _ -> Category.Fault_injected
  | Process_lifecycle _ -> Category.Process_lifecycle
  | Watchdog_check _ -> Category.Watchdog
  | Custom _ -> Category.Custom

type event = {
  time : Time.t;
  severity : severity;
  component : string;
  kind : kind;
}

type t = {
  buf : event array;
  capacity : int;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable overwritten : int;
  mutable mask : int;
}

(* -- the global simulation clock used to stamp events --------------------

   The engine registers its clock here on creation (last engine created
   wins), so module-level [emit] works from any layer without threading a
   handle through every hot path. *)

let clock : (unit -> Time.t) ref = ref (fun () -> Time.zero)
let set_clock f = clock := f
let now () = !clock ()

let default_capacity = 65_536

let dummy_event =
  { time = Time.zero; severity = Info; component = ""; kind = Custom "" }

let create ?(capacity = default_capacity) ?(categories = Category.all) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    buf = Array.make capacity dummy_event;
    capacity;
    head = 0;
    len = 0;
    overwritten = 0;
    mask = Category.mask_of categories;
  }

(* -- the installed global sink ------------------------------------------ *)

let sink_ref : t option ref = ref None

(* Mirrors the sink's category mask; 0 when no sink is installed, so the
   hot-path check [on cat] is one load + land + compare. *)
let global_mask = ref 0

let refresh_global_mask () =
  global_mask := (match !sink_ref with None -> 0 | Some t -> t.mask)

let install t =
  sink_ref := Some t;
  refresh_global_mask ()

let uninstall () =
  sink_ref := None;
  refresh_global_mask ()

let on cat = !global_mask land Category.bit cat <> 0

let enabled t cat = t.mask land Category.bit cat <> 0

let enable t cat =
  t.mask <- t.mask lor Category.bit cat;
  (match !sink_ref with Some s when s == t -> refresh_global_mask () | _ -> ())

let disable t cat =
  t.mask <- t.mask land lnot (Category.bit cat);
  (match !sink_ref with Some s when s == t -> refresh_global_mask () | _ -> ())

(* -- recording ----------------------------------------------------------- *)

let record ?(severity = Info) t ~component kind =
  if t.mask land Category.bit (category_of_kind kind) <> 0 then begin
    let ev = { time = !clock (); severity; component; kind } in
    if t.len = t.capacity then begin
      (* Ring full: overwrite the oldest event. *)
      t.buf.(t.head) <- ev;
      t.head <- (t.head + 1) mod t.capacity;
      t.overwritten <- t.overwritten + 1
    end
    else begin
      t.buf.((t.head + t.len) mod t.capacity) <- ev;
      t.len <- t.len + 1
    end
  end

let emit ?severity ~component kind =
  match !sink_ref with
  | None -> ()
  | Some t -> record ?severity t ~component kind

(* -- inspection ---------------------------------------------------------- *)

let length t = t.len
let capacity t = t.capacity
let overwritten t = t.overwritten

let events t =
  List.init t.len (fun i -> t.buf.((t.head + i) mod t.capacity))

let find t ~component =
  List.filter (fun ev -> String.equal ev.component component) (events t)

let find_cat t cat =
  List.filter
    (fun ev -> category_of_kind ev.kind = (cat : Category.t))
    (events t)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.overwritten <- 0
