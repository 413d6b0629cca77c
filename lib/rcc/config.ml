type iface_cfg = {
  ifname : string;
  peer : string;
  bandwidth_kbps : int;
  delay_us : int;
  ospf_cost : int;
}

type router_cfg = {
  hostname : string;
  ospf : bool;
  hello_interval_s : int option;
  dead_interval_s : int option;
  ifaces : iface_cfg list;
}

(* A pending interface section being accumulated. *)
type building_iface = {
  b_ifname : string;
  mutable b_peer : string option;
  mutable b_bw : int;
  mutable b_delay : int;
  mutable b_cost : int option;
}

type section = Top | In_ospf | In_iface of building_iface

type builder = {
  mutable hostname : string option;
  mutable ospf : bool;
  mutable hello : int option;
  mutable dead : int option;
  mutable done_ifaces : iface_cfg list;
  mutable section : section;
}

let fresh_builder () =
  {
    hostname = None;
    ospf = false;
    hello = None;
    dead = None;
    done_ifaces = [];
    section = Top;
  }

let strip_comment line =
  let cut c s =
    match String.index_opt s c with None -> s | Some i -> String.sub s 0 i
  in
  cut '!' (cut '#' line)

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.filter (fun s -> s <> "")

let close_iface b =
  match b.section with
  | In_iface bi -> (
      b.section <- Top;
      match bi.b_peer with
      | None ->
          Error
            (Printf.sprintf "interface %s has no \"description to <peer>\""
               bi.b_ifname)
      | Some peer ->
          let cost =
            (* Cisco-style default: cost from bandwidth when unset. *)
            match bi.b_cost with
            | Some c -> c
            | None -> max 1 (100_000_000 / max 1 (bi.b_bw * 1000))
          in
          b.done_ifaces <-
            {
              ifname = bi.b_ifname;
              peer;
              bandwidth_kbps = bi.b_bw;
              delay_us = bi.b_delay;
              ospf_cost = cost;
            }
            :: b.done_ifaces;
          Ok ())
  | Top | In_ospf ->
      b.section <- Top;
      Ok ()

let int_arg name = function
  | [ v ] -> (
      match int_of_string_opt v with
      | Some i when i >= 0 -> Ok i
      | Some _ | None -> Error (Printf.sprintf "bad %s value %S" name v))
  | _ -> Error (Printf.sprintf "%s expects one argument" name)

let feed b line =
  let ( let* ) = Result.bind in
  match tokens line with
  | [] -> Ok ()
  | "hostname" :: rest -> (
      let* () = close_iface b in
      match rest with
      | [ h ] ->
          if b.hostname = None then begin
            b.hostname <- Some h;
            Ok ()
          end
          else Error "duplicate hostname line"
      | _ -> Error "hostname expects one argument")
  | "router" :: "ospf" :: _ ->
      let* () = close_iface b in
      b.ospf <- true;
      b.section <- In_ospf;
      Ok ()
  | "interface" :: [ ifname ] ->
      let* () = close_iface b in
      b.section <-
        In_iface
          { b_ifname = ifname; b_peer = None; b_bw = 1_000_000; b_delay = 100;
            b_cost = None };
      Ok ()
  | "hello-interval" :: rest when b.section = In_ospf ->
      let* v = int_arg "hello-interval" rest in
      b.hello <- Some v;
      Ok ()
  | "dead-interval" :: rest when b.section = In_ospf ->
      let* v = int_arg "dead-interval" rest in
      b.dead <- Some v;
      Ok ()
  | "description" :: "to" :: [ peer ] -> (
      match b.section with
      | In_iface bi ->
          bi.b_peer <- Some peer;
          Ok ()
      | Top | In_ospf -> Error "description outside interface section")
  | "bandwidth" :: rest -> (
      match b.section with
      | In_iface bi ->
          let* v = int_arg "bandwidth" rest in
          bi.b_bw <- v;
          Ok ()
      | Top | In_ospf -> Error "bandwidth outside interface section")
  | "delay" :: rest -> (
      match b.section with
      | In_iface bi ->
          let* v = int_arg "delay" rest in
          bi.b_delay <- v;
          Ok ()
      | Top | In_ospf -> Error "delay outside interface section")
  | "ip" :: "ospf" :: "cost" :: rest -> (
      match b.section with
      | In_iface bi ->
          let* v = int_arg "ip ospf cost" rest in
          bi.b_cost <- Some v;
          Ok ()
      | Top | In_ospf -> Error "ip ospf cost outside interface section")
  | tok :: _ -> Error (Printf.sprintf "unrecognised directive %S" tok)

let finish b =
  match close_iface b with
  | Error e -> Error e
  | Ok () -> (
      match b.hostname with
      | None -> Error "missing hostname"
      | Some hostname ->
          Ok
            {
              hostname;
              ospf = b.ospf;
              hello_interval_s = b.hello;
              dead_interval_s = b.dead;
              ifaces = List.rev b.done_ifaces;
            })

let parse text =
  let b = fresh_builder () in
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> finish b
    | line :: rest -> (
        match feed b line with
        | Ok () -> go (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 lines

let parse_many text =
  (* Split on "hostname" lines, keeping each chunk self-contained. *)
  let lines = String.split_on_char '\n' text in
  let chunks = ref [] and current = ref [] in
  List.iter
    (fun line ->
      let is_hostname =
        match tokens line with "hostname" :: _ -> true | _ -> false
      in
      if is_hostname && !current <> [] then begin
        chunks := List.rev !current :: !chunks;
        current := [ line ]
      end
      else current := line :: !current)
    lines;
  if !current <> [] then chunks := List.rev !current :: !chunks;
  let chunks = List.rev !chunks in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | chunk :: rest -> (
        let text = String.concat "\n" chunk in
        if String.trim text = "" then go acc rest
        else
          match parse text with
          | Ok cfg -> go (cfg :: acc) rest
          | Error e -> Error e)
  in
  go [] chunks
