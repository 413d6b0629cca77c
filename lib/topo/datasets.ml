let ms_f = Vini_sim.Time.of_ms_f

(* Link helper: weight defaults to 100 * one-way delay in ms, mirroring
   Abilene's distance-proportional IGP costs. *)
let link ?weight ?(loss = 0.0) ~bw a b delay_ms =
  let weight =
    match weight with
    | Some w -> w
    | None -> int_of_float (Float.round (delay_ms *. 100.0))
  in
  { Graph.a; b; bandwidth_bps = bw; delay = ms_f delay_ms; loss; weight }

module Abilene = struct
  let seattle = 0
  let sunnyvale = 1
  let los_angeles = 2
  let denver = 3
  let kansas_city = 4
  let houston = 5
  let atlanta = 6
  let indianapolis = 7
  let chicago = 8
  let new_york = 9
  let washington = 10

  let pop_names =
    [|
      "Seattle"; "Sunnyvale"; "Los Angeles"; "Denver"; "Kansas City";
      "Houston"; "Atlanta"; "Indianapolis"; "Chicago"; "New York";
      "Washington DC";
    |]

  (* OC-192 backbone: 10 Gb/s.  One-way delays (ms) are from PoP-pair fiber
     distance; they make D.C.->Seattle 38.0 ms one-way on the north path
     (RTT 76 ms) and 46.5 ms on the south path (RTT 93 ms), matching §5.2. *)
  let bw = 10e9

  let topology () =
    Graph.relabel "abilene"
    @@ Graph.create ~names:pop_names
      ~links:
        [
          link ~bw seattle sunnyvale 8.0;
          link ~bw seattle denver 14.5;
          link ~bw sunnyvale los_angeles 5.0;
          link ~bw sunnyvale denver 12.0;
          link ~bw los_angeles houston 15.5;
          link ~bw denver kansas_city 5.5;
          link ~bw kansas_city houston 9.0;
          link ~bw kansas_city indianapolis 5.0;
          link ~bw houston atlanta 10.0;
          link ~bw atlanta indianapolis 5.5;
          link ~bw atlanta washington 8.0;
          link ~bw indianapolis chicago 2.5;
          link ~bw chicago new_york 8.5;
          link ~bw new_york washington 2.0;
        ]
end

module Deter = struct
  let src = 0
  let fwdr = 1
  let sink = 2

  (* Gigabit Ethernet, back-to-back machines: propagation is microseconds. *)
  let topology () =
    Graph.relabel "deter"
    @@ Graph.create
      ~names:[| "Src"; "Fwdr"; "Sink" |]
      ~links:
        [
          link ~bw:1e9 ~weight:1 src fwdr 0.02;
          link ~bw:1e9 ~weight:1 fwdr sink 0.02;
        ]
end

module Planetlab3 = struct
  let chicago = 0
  let new_york = 1
  let washington = 2

  (* 100 Mb/s node access; delays give the 24.4 ms Chicago-D.C. floor the
     paper measured with ping (Table 5, "Network" row). *)
  let topology () =
    Graph.relabel "planetlab3"
    @@ Graph.create
      ~names:[| "planetlab1.chin"; "planetlab1.nycm"; "planetlab1.wash" |]
      ~links:
        [
          link ~bw:100e6 ~weight:1 chicago new_york 10.1;
          link ~bw:100e6 ~weight:1 new_york washington 2.0;
        ]
end

module Nlr = struct
  let seattle = 0
  let sunnyvale = 1
  let los_angeles = 2
  let denver = 3
  let chicago = 4
  let pittsburgh = 5
  let washington = 6
  let atlanta = 7
  let jacksonville = 8
  let houston = 9

  (* NLR PacketNet ran 10 GbE waves around the national footprint; delays
     from fiber distance like the Abilene dataset. *)
  let bw = 10e9

  let topology () =
    Graph.relabel "nlr"
    @@ Graph.create
      ~names:
        [|
          "Seattle"; "Sunnyvale"; "Los Angeles"; "Denver"; "Chicago";
          "Pittsburgh"; "Washington DC"; "Atlanta"; "Jacksonville"; "Houston";
        |]
      ~links:
        [
          link ~bw seattle sunnyvale 8.5;
          link ~bw seattle denver 13.0;
          link ~bw sunnyvale los_angeles 4.5;
          link ~bw los_angeles houston 15.5;
          link ~bw denver chicago 11.0;
          link ~bw chicago pittsburgh 5.0;
          link ~bw pittsburgh washington 2.5;
          link ~bw washington atlanta 7.5;
          link ~bw atlanta jacksonville 3.5;
          link ~bw jacksonville houston 9.5;
          link ~bw atlanta houston 10.0;
          link ~bw denver houston 10.5;
        ]
end

(* The synthetic shapes' links: 1 Gb/s, 2 ms, weight 1. *)
let unit_link a b =
  { Graph.a; b; bandwidth_bps = 1e9; delay = Vini_sim.Time.ms 2; loss = 0.0;
    weight = 1 }

let ring ~n () =
  if n < 3 then invalid_arg "Datasets.ring: need at least 3 nodes";
  Graph.relabel (Printf.sprintf "ring-%d" n)
  @@ Graph.create
    ~names:(Array.init n (Printf.sprintf "r%d"))
    ~links:(List.init n (fun i -> unit_link i ((i + 1) mod n)))

let star ~leaves () =
  if leaves < 1 then invalid_arg "Datasets.star: need at least 1 leaf";
  Graph.relabel (Printf.sprintf "star-%d" leaves)
  @@ Graph.create
    ~names:(Array.init (leaves + 1) (fun i -> if i = 0 then "hub" else Printf.sprintf "leaf%d" i))
    ~links:(List.init leaves (fun i -> unit_link 0 (i + 1)))

let grid ~rows ~cols () =
  if rows < 1 || cols < 1 then invalid_arg "Datasets.grid: bad dimensions";
  let id r c = (r * cols) + c in
  let links = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then links := unit_link (id r c) (id r (c + 1)) :: !links;
      if r + 1 < rows then links := unit_link (id r c) (id (r + 1) c) :: !links
    done
  done;
  Graph.relabel (Printf.sprintf "grid-%dx%d" rows cols)
  @@ Graph.create
    ~names:(Array.init (rows * cols) (Printf.sprintf "g%d"))
    ~links:!links

let waxman ~rng ~n () =
  if n < 1 then invalid_arg "Datasets.waxman: n must be positive";
  let alpha = 0.4 and beta = 0.6 in
  let xs = Array.init n (fun _ -> Vini_std.Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Vini_std.Rng.float rng 1.0) in
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let km_per_unit = 4000.0 in
  let delay_ms i j =
    (* 5 us/km of fiber, floor of 100 us so zero-length links stay sane. *)
    Float.max 0.1 (dist i j *. km_per_unit *. 0.005)
  in
  let mk i j = link ~bw:1e9 (min i j) (max i j) (delay_ms i j) in
  let have = Hashtbl.create 16 in
  let links = ref [] in
  let add i j =
    let key = (min i j, max i j) in
    if i <> j && not (Hashtbl.mem have key) then begin
      Hashtbl.add have key ();
      links := mk i j :: !links
    end
  in
  (* Random spanning tree for connectivity. *)
  for i = 1 to n - 1 do
    add i (Vini_std.Rng.int rng i)
  done;
  (* Waxman edges: P(i,j) = alpha * exp(-d / (beta * L)). *)
  let l = Float.sqrt 2.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. l)) in
      if Vini_std.Rng.float rng 1.0 < p then add i j
    done
  done;
  Graph.relabel (Printf.sprintf "waxman-%d" n)
  @@ Graph.create
    ~names:(Array.init n (Printf.sprintf "n%d"))
    ~links:!links
