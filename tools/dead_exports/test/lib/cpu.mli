val kick : unit -> int

val run : ?burst:int -> ?quiet:bool -> unit -> int
(** [?burst] is passed only by [twice], in this module; nothing passes
    [?quiet]. *)

val twice : unit -> int
