(* The per-packet flight recorder: the cold half.

   [Vini_sim.Span] collects flat origin/hop/drop records on the packet
   hot path; this module reassembles them offline into causal trees keyed
   by provenance id, attributes per-hop latency (the §5.1.2
   decomposition), and renders one-call drop forensics. *)

module Sim = Vini_sim.Span
module Time = Vini_sim.Time
module Histogram = Vini_std.Histogram

type origin = {
  o_pkt : int;
  o_component : string;
  o_bytes : int;
  o_t : Time.t;
}

type hop = {
  h_pkt : int;
  h_component : string;
  h_attribution : Sim.attribution;
  h_t0 : Time.t;
  h_t1 : Time.t;
}

type drop = {
  d_pkt : int;
  d_component : string;
  d_reason : string;
  d_bytes : int;
  d_t : Time.t;
}

type tree = {
  tree_orig : int;
  origins : origin list; (* chronological; head is the root origin *)
  hops : hop list;       (* chronological *)
  drops : drop list;     (* chronological; non-empty = the tree died *)
}

let hop_duration_s h = Time.to_sec_f (Time.sub h.h_t1 h.h_t0)

let total_latency tree =
  List.fold_left (fun acc h -> acc +. hop_duration_s h) 0.0 tree.hops

let root_component tree =
  match tree.origins with o :: _ -> o.o_component | [] -> "?"

(* -- reassembly -----------------------------------------------------------

   Records from one engine are chronological (oldest retained first); a
   recorder shared by several engines in one process (each starting at
   t=0) is chronological only per engine.  A single pass partitions
   records by provenance id, then each tree's lists — and the trees
   themselves — are stable-sorted by time, which is the identity on
   already-ordered input and merges the runs otherwise. *)

let trees recorder =
  let tbl : (int, tree ref) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] in
  let get orig =
    match Hashtbl.find_opt tbl orig with
    | Some r -> r
    | None ->
        let r =
          ref { tree_orig = orig; origins = []; hops = []; drops = [] }
        in
        Hashtbl.add tbl orig r;
        order := r :: !order;
        r
  in
  List.iter
    (fun record ->
      let r = get (Sim.record_orig record) in
      match record with
      | Sim.Origin { pkt; bytes; component; t; _ } ->
          r :=
            { !r with
              origins =
                !r.origins
                @ [ { o_pkt = pkt; o_component = component; o_bytes = bytes;
                      o_t = t } ] }
      | Sim.Hop { pkt; component; attribution; t0; t1; _ } ->
          r :=
            { !r with
              hops =
                !r.hops
                @ [ { h_pkt = pkt; h_component = component;
                      h_attribution = attribution; h_t0 = t0; h_t1 = t1 } ] }
      | Sim.Drop { pkt; component; reason; bytes; t; _ } ->
          r :=
            { !r with
              drops =
                !r.drops
                @ [ { d_pkt = pkt; d_component = component; d_reason = reason;
                      d_bytes = bytes; d_t = t } ] })
    (Sim.records recorder);
  let sort_tree t =
    {
      t with
      origins = List.stable_sort (fun a b -> Time.compare a.o_t b.o_t) t.origins;
      hops =
        List.stable_sort
          (fun a b ->
            let c = Time.compare a.h_t0 b.h_t0 in
            if c <> 0 then c else Time.compare a.h_t1 b.h_t1)
          t.hops;
      drops = List.stable_sort (fun a b -> Time.compare a.d_t b.d_t) t.drops;
    }
  in
  let first_t t =
    let fold f acc l = List.fold_left f acc l in
    let m = Time.max_value in
    let m = fold (fun acc o -> Time.min acc o.o_t) m t.origins in
    let m = fold (fun acc h -> Time.min acc h.h_t0) m t.hops in
    fold (fun acc d -> Time.min acc d.d_t) m t.drops
  in
  List.rev_map (fun r -> sort_tree !r) !order
  |> List.stable_sort (fun a b -> Time.compare (first_t a) (first_t b))

(* -- latency attribution -------------------------------------------------- *)

type row = {
  attribution : Sim.attribution;
  total_s : float;
  hop_count : int;
  hist : Histogram.t; (* per-hop durations, seconds *)
}

let empty_rows () =
  List.map
    (fun a ->
      (a, ref { attribution = a; total_s = 0.0; hop_count = 0;
                hist = Histogram.create () }))
    Sim.attributions

let breakdown ts =
  let rows = empty_rows () in
  List.iter
    (fun tree ->
      List.iter
        (fun h ->
          let r = List.assoc h.h_attribution rows in
          let d = hop_duration_s h in
          Histogram.add !r.hist d;
          r := { !r with total_s = !r.total_s +. d;
                 hop_count = !r.hop_count + 1 })
        tree.hops)
    ts;
  List.map (fun (_, r) -> !r) rows

(* Per-flow/slice attribution: trees grouped by the component that
   originated them (a TCP source, a VPN ingress, a routing emitter). *)
let breakdown_by_origin ts =
  let groups : (string, tree list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun tree ->
      let key = root_component tree in
      match Hashtbl.find_opt groups key with
      | Some l -> l := tree :: !l
      | None ->
          Hashtbl.add groups key (ref [ tree ]);
          order := key :: !order)
    ts;
  List.rev_map
    (fun key -> (key, breakdown (List.rev !(Hashtbl.find groups key))))
    !order

(* -- drop forensics ------------------------------------------------------- *)

type path_step =
  | At_origin of origin
  | Through of hop

type forensic = {
  f_orig : int;
  f_pkt : int;
  f_site : string;
  f_reason : string;
  f_bytes : int;
  f_t : Time.t;
  f_path : path_step list; (* path-so-far, chronological *)
}

(* One forensic record per drop: the reason, the site, and every recorded
   waypoint of the packet's causal tree up to the moment of death. *)
let forensics ts =
  List.concat_map
    (fun tree ->
      List.map
        (fun d ->
          let upto t = Time.compare t d.d_t <= 0 in
          let path =
            List.filter (fun o -> upto o.o_t) tree.origins
            |> List.map (fun o -> At_origin o)
          in
          let path =
            path
            @ (List.filter (fun h -> upto h.h_t1) tree.hops
              |> List.map (fun h -> Through h))
          in
          {
            f_orig = tree.tree_orig;
            f_pkt = d.d_pkt;
            f_site = d.d_component;
            f_reason = d.d_reason;
            f_bytes = d.d_bytes;
            f_t = d.d_t;
            f_path = path;
          })
        tree.drops)
    ts

(* -- worst-path exemplars ------------------------------------------------- *)

let worst ?(n = 5) ts =
  let ranked =
    List.sort
      (fun a b -> Float.compare (total_latency b) (total_latency a))
      ts
  in
  List.filteri (fun i _ -> i < n) ranked
