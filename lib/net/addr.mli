(** IPv4 addresses.

    Addresses are stored as non-negative ints in [0, 2^32), which OCaml's
    63-bit native ints hold exactly; this keeps arithmetic (subnet math,
    iteration over hosts) free of Int32 boxing. *)

type t = private int

val of_int : int -> t (* @raise Invalid_argument when outside [0, 2^32). *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t (* [of_octets a b c d] is the address [a.b.c.d]. *)

val of_string : string -> t (* Parse dotted-quad notation. @raise Invalid_argument on bad input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool

val succ : t -> t (* Next address, wrapping at 255.255.255.255. *)

val add : t -> int -> t
val any : t (* 0.0.0.0 *)
val broadcast : t (* 255.255.255.255 *)

val pp : Format.formatter -> t -> unit
