type t = int

val compare : t -> t -> int

val to_string : t -> string
(** Nothing calls it, but [Map.Make] takes the whole module. *)
