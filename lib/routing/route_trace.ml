module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Prefix = Vini_net.Prefix
module Addr = Vini_net.Addr

type entry = { at : Time.t; change : Rib.change }

type recorder = {
  engine : Engine.t;
  mutable entries_rev : entry list;
}

let recorder ~engine () = { engine; entries_rev = [] }

let tap r fea change =
  r.entries_rev <- { at = Engine.now r.engine; change } :: r.entries_rev;
  fea change

let entries r = List.rev r.entries_rev

let proto_of_string = function
  | "connected" -> Some Rib.Connected
  | "static" -> Some Rib.Static
  | "ebgp" -> Some Rib.Ebgp
  | "ospf" -> Some Rib.Ospf
  | "rip" -> Some Rib.Rip
  | "ibgp" -> Some Rib.Ibgp
  | _ -> None

let entry_to_string e =
  let t = Time.to_sec_f e.at in
  match e.change with
  | Rib.Install (p, r) ->
      Printf.sprintf "%.6f install %s via %s metric %d proto %s" t
        (Prefix.to_string p)
        (Addr.to_string r.Rib.next_hop)
        r.Rib.metric
        (Rib.proto_name r.Rib.proto)
  | Rib.Withdraw p -> Printf.sprintf "%.6f withdraw %s" t (Prefix.to_string p)

let to_string entries =
  "# vini route trace v1\n"
  ^ String.concat "\n" (List.map entry_to_string entries)
  ^ "\n"

let parse_line line =
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
  with
  | [] -> Ok None
  | hd :: _ when String.length hd > 0 && hd.[0] = '#' -> Ok None
  | [ t; "install"; p; "via"; nh; "metric"; m; "proto"; proto ] -> (
      match
        ( float_of_string_opt t,
          Prefix.of_string_opt p,
          Addr.of_string_opt nh,
          int_of_string_opt m,
          proto_of_string proto )
      with
      | Some t, Some p, Some nh, Some m, Some proto ->
          Ok
            (Some
               {
                 at = Time.of_sec_f t;
                 change =
                   Rib.Install (p, { Rib.next_hop = nh; metric = m; proto });
               })
      | _ -> Error (Printf.sprintf "bad install line %S" line))
  | [ t; "withdraw"; p ] -> (
      match (float_of_string_opt t, Prefix.of_string_opt p) with
      | Some t, Some p ->
          Ok (Some { at = Time.of_sec_f t; change = Rib.Withdraw p })
      | _ -> Error (Printf.sprintf "bad withdraw line %S" line))
  | _ -> Error (Printf.sprintf "unrecognised trace line %S" line)

let of_string text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok None -> go acc rest
        | Ok (Some e) -> go (e :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char '\n' text)

let play ~engine ~rib ?(speed = 1.0) entries =
  let proto = Rib.Static in
  if speed <= 0.0 then invalid_arg "Route_trace.play: speed must be positive";
  match entries with
  | [] -> ()
  | first :: _ ->
      let t0 = first.at in
      List.iter
        (fun e ->
          let offset =
            Time.of_sec_f (Time.to_sec_f (Time.sub e.at t0) /. speed)
          in
          ignore
            (Engine.after engine offset (fun () ->
                 match e.change with
                 | Rib.Install (p, r) ->
                     Rib.update rib ~proto p
                       (Some { r with Rib.proto })
                 | Rib.Withdraw p -> Rib.update rib ~proto p None)))
        entries
