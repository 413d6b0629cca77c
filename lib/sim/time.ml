type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let of_ms_f m = int_of_float (Float.round (m *. 1e6))
let add = ( + )
let sub = ( - )
let mul t n = t * n
let max_value = max_int
let compare : t -> t -> int = Int.compare
let ( <= ) : t -> t -> bool = Stdlib.( <= )
let ( < ) : t -> t -> bool = Stdlib.( < )
let ( >= ) : t -> t -> bool = Stdlib.( >= )
let ( > ) : t -> t -> bool = Stdlib.( > )
(* Int functions, not [Stdlib.min]/[max]: those are polymorphic and
   compare through [compare_val] on every packet-path call. *)
let min (a : t) (b : t) = if Stdlib.( <= ) a b then a else b
let max (a : t) (b : t) = if Stdlib.( >= ) a b then a else b
let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec_f t)
