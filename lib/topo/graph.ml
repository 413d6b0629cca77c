type node_id = int

type link = {
  a : node_id;
  b : node_id;
  bandwidth_bps : float;
  delay : Vini_sim.Time.t;
  loss : float;
  weight : int;
}

type t = {
  label : string;
  names : string array;
  link_list : link list;
  adj : (node_id * link) list array;
  by_name : (string, node_id) Hashtbl.t;
  (* Adjacency slots, the flat form of [adj]: node [u]'s neighbours, in
     [adj] order, are slots [first.(u)] to [first.(u + 1) - 1]; slot [s]
     leads to [target.(s)] over link number [slot_link.(s)] of
     [link_list]. *)
  first : int array;
  target : int array;
  slot_link : int array;
}

exception Unknown_node of { topo : string; node : string }

let () =
  Printexc.register_printer (function
    | Unknown_node { topo; node } ->
        Some (Printf.sprintf "Graph.Unknown_node(topology %S has no node %S)" topo node)
    | _ -> None)

let other_end link n =
  if n = link.a then link.b
  else if n = link.b then link.a
  else invalid_arg "Graph.other_end: node not an endpoint"

let create ~names ~links =
  let n = Array.length names in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if l.a < 0 || l.a >= n || l.b < 0 || l.b >= n then
        invalid_arg "Graph.create: endpoint out of range";
      if l.a = l.b then invalid_arg "Graph.create: self-loop";
      let bad what =
        invalid_arg
          (Printf.sprintf "Graph.create: link %s-%s: %s" names.(l.a)
             names.(l.b) what)
      in
      if l.weight < 0 then bad (Printf.sprintf "negative weight %d" l.weight);
      if not (l.bandwidth_bps > 0.0) then
        bad (Printf.sprintf "bandwidth_bps %g is not positive" l.bandwidth_bps);
      if not (l.loss >= 0.0 && l.loss <= 1.0) then
        bad (Printf.sprintf "loss %g is outside [0, 1]" l.loss);
      let key = (min l.a l.b, max l.a l.b) in
      if Hashtbl.mem seen key then
        invalid_arg "Graph.create: duplicate link";
      Hashtbl.add seen key ())
    links;
  let indexed = Array.make n [] in
  List.iteri
    (fun i l ->
      indexed.(l.a) <- (l.b, i, l) :: indexed.(l.a);
      indexed.(l.b) <- (l.a, i, l) :: indexed.(l.b))
    links;
  let indexed =
    Array.map (List.sort (fun (x, _, _) (y, _, _) -> Int.compare x y)) indexed
  in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun u l -> first.(u + 1) <- first.(u) + List.length l) indexed;
  let target = Array.make first.(n) 0 and slot_link = Array.make first.(n) 0 in
  Array.iteri
    (fun u l ->
      List.iteri
        (fun k (v, i, _) ->
          target.(first.(u) + k) <- v;
          slot_link.(first.(u) + k) <- i)
        l)
    indexed;
  let adj = Array.map (List.map (fun (v, _, l) -> (v, l))) indexed in
  let by_name = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace by_name name i) names;
  {
    label = "topology";
    names;
    link_list = links;
    adj;
    by_name;
    first;
    target;
    slot_link;
  }

let relabel label t = { t with label }
let node_count t = Array.length t.names
let link_count t = List.length t.link_list
let label t = t.label
let name t i = t.names.(i)
let id_of_name_opt t n = Hashtbl.find_opt t.by_name n

let id_of_name t n =
  match Hashtbl.find_opt t.by_name n with
  | Some i -> i
  | None -> raise (Unknown_node { topo = t.label; node = n })

let links t = t.link_list
let nodes t = List.init (node_count t) Fun.id
let neighbors t i = t.adj.(i)

let find_link t x y =
  List.find_map (fun (nbr, l) -> if nbr = y then Some l else None) t.adj.(x)

let is_connected t =
  let n = node_count t in
  if n = 0 then true
  else begin
    let visited = Array.make n false in
    let rec dfs i =
      if not visited.(i) then begin
        visited.(i) <- true;
        List.iter (fun (j, _) -> dfs j) t.adj.(i)
      end
    in
    dfs 0;
    Array.for_all Fun.id visited
  end

let slot_count t = Array.length t.target
let first_slot t u = t.first.(u)
let slot_target t s = t.target.(s)
let slot_link t s = t.slot_link.(s)

let rec scan (target : int array) (v : int) s stop =
  if s = stop then -1
  else if target.(s) = v then s
  else scan target v (s + 1) stop

let find_slot t u v =
  if u < 0 || u >= node_count t then -1
  else scan t.target v t.first.(u) t.first.(u + 1)

(* Dijkstra's heap: (dist, node) pairs in two int arrays, ordered by
   dist, then node id.  A node is pushed on every relaxation that
   improves or re-ties it, and stale entries are skipped when popped; a
   slot relaxes successfully at most once per run (weights are
   non-negative), so [slot_count + 1] entries always suffice. *)
type scratch = { hd : int array; hv : int array }

let scratch t =
  let cap = slot_count t + 1 in
  { hd = Array.make cap 0; hv = Array.make cap 0 }

(* Hole-based sifts: carry the moving pair in registers and shift the
   blocking entries into the hole. *)
let heap_up (hd : int array) (hv : int array) i (d : int) (v : int) =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pd = hd.(p) in
    if pd > d || (pd = d && hv.(p) > v) then begin
      hd.(!i) <- pd;
      hv.(!i) <- hv.(p);
      i := p
    end
    else continue := false
  done;
  hd.(!i) <- d;
  hv.(!i) <- v

let heap_down (hd : int array) (hv : int array) n i (d : int) (v : int) =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let m =
        if r < n && (hd.(r) < hd.(l) || (hd.(r) = hd.(l) && hv.(r) < hv.(l)))
        then r
        else l
      in
      let md = hd.(m) in
      if md < d || (md = d && hv.(m) < v) then begin
        hd.(!i) <- md;
        hv.(!i) <- hv.(m);
        i := m
      end
      else continue := false
    end
  done;
  hd.(!i) <- d;
  hv.(!i) <- v

let dijkstra_into t { hd; hv } ~weights ~dist ~prev src =
  let first = t.first and target = t.target in
  Array.fill dist 0 (Array.length dist) max_int;
  Array.fill prev 0 (Array.length prev) (-1);
  dist.(src) <- 0;
  hd.(0) <- 0;
  hv.(0) <- src;
  let size = ref 1 in
  while !size > 0 do
    let d = hd.(0) and u = hv.(0) in
    decr size;
    if !size > 0 then heap_down hd hv !size 0 hd.(!size) hv.(!size);
    if d = dist.(u) then
      for s = first.(u) to first.(u + 1) - 1 do
        let w = weights.(s) in
        if w < 0 then invalid_arg "Graph.dijkstra: negative weight";
        let v = target.(s) in
        let dv = d + w in
        (* A tie moves [v]'s parent towards the lower-numbered node;
           [prev] is -1 when unset, so a tie never beats "none". *)
        if dv < dist.(v) || (dv = dist.(v) && u < prev.(v)) then begin
          dist.(v) <- dv;
          prev.(v) <- u;
          heap_up hd hv !size dv v;
          incr size
        end
      done
  done

let dijkstra ?(weight_of = fun l -> l.weight) t src =
  let links = Array.of_list t.link_list in
  let weights = Array.map (fun i -> weight_of links.(i)) t.slot_link in
  let n = node_count t in
  let dist = Array.make n max_int and prev = Array.make n (-1) in
  dijkstra_into t (scratch t) ~weights ~dist ~prev src;
  (dist, Array.map (fun p -> if p < 0 then None else Some p) prev)

let shortest_path ?weight_of t src dst =
  let _, prev = dijkstra ?weight_of t src in
  if src = dst then Some [ src ]
  else
    match prev.(dst) with
    | None -> None
    | Some _ ->
        let rec build acc v =
          if v = src then v :: acc
          else
            match prev.(v) with
            | Some p -> build (v :: acc) p
            | None -> assert false
        in
        Some (build [ dst ] (Option.get prev.(dst)))

let bellman_ford ?(weight_of = fun l -> l.weight) t src =
  let n = node_count t in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  for _ = 1 to n - 1 do
    List.iter
      (fun l ->
        let w = weight_of l in
        let relax u v =
          if dist.(u) < max_int && dist.(u) + w < dist.(v) then
            dist.(v) <- dist.(u) + w
        in
        relax l.a l.b;
        relax l.b l.a)
      t.link_list
  done;
  dist

let fold_path t path ~init ~f =
  match path with
  | [] | [ _ ] -> init
  | first :: rest ->
      let acc, _ =
        List.fold_left
          (fun (acc, u) v ->
            match find_link t u v with
            | Some l -> (f acc l, v)
            | None -> invalid_arg "Graph: path nodes not adjacent")
          (init, first) rest
      in
      acc

let path_delay t path =
  fold_path t path ~init:Vini_sim.Time.zero ~f:(fun acc l ->
      Vini_sim.Time.add acc l.delay)

let path_weight t path = fold_path t path ~init:0 ~f:(fun acc l -> acc + l.weight)

let pp ppf t =
  Format.fprintf ppf "graph with %d nodes, %d links@." (node_count t)
    (link_count t);
  List.iter
    (fun l ->
      Format.fprintf ppf "  %s -- %s  %.0f Mb/s  %.2f ms  w=%d@."
        t.names.(l.a) t.names.(l.b)
        (l.bandwidth_bps /. 1e6)
        (Vini_sim.Time.to_ms_f l.delay)
        l.weight)
    t.link_list
