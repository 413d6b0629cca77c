type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t n =
  assert (n > 0);
  (* Keep 62 bits: [Int64.to_int] would otherwise land the high bit on the
     native int's sign. *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  bits mod n

let float t x =
  (* 53 random mantissa bits scaled into [0, 1). *)
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  u /. 9007199254740992.0 *. x

let uniform t lo hi = lo +. float t (hi -. lo)

let exponential t mean =
  let u = float t 1.0 in
  -. mean *. log (1.0 -. u)

let normal t ~mean ~stddev =
  let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pareto t ~scale ~shape =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

