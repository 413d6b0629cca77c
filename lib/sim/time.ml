type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
(* [int_of_float (Float.round x)] without libm's [round] call.  Below
   2^52 a float's fraction [r = x - trunc x] is exact, and so is [2r],
   which truncates to +1 exactly when r >= 1/2 and to -1 exactly when
   r <= -1/2: halves round away from zero, as [Float.round] does, with
   no branch on the fraction to mispredict.  At or above 2^52 (and for
   nan) no fraction is left, and [Float.round] decides. *)
let of_ns_f x =
  if Float.abs x < 4503599627370496.0 then
    let i = int_of_float x in
    i + int_of_float (2.0 *. (x -. float_of_int i))
  else int_of_float (Float.round x)
[@@inline]

let of_sec_f s = of_ns_f (s *. 1e9) [@@inline]
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let of_ms_f m = of_ns_f (m *. 1e6) [@@inline]
let add = ( + )
let sub = ( - )
let mul t n = t * n
let max_value = max_int
let compare : t -> t -> int = Int.compare
let ( <= ) : t -> t -> bool = Stdlib.( <= )
let ( < ) : t -> t -> bool = Stdlib.( < )
let ( > ) : t -> t -> bool = Stdlib.( > )
(* Int functions, not [Stdlib.min]/[max]: those are polymorphic and
   compare through [compare_val] on every packet-path call. *)
let min (a : t) (b : t) = if Stdlib.( <= ) a b then a else b
let max (a : t) (b : t) = if Stdlib.( >= ) a b then a else b
let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec_f t)
