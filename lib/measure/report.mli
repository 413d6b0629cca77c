(** Rendering helpers for the evaluation harness: aligned tables
    (paper-value vs measured-value rows) and compact ASCII series plots
    for the figure reproductions. *)

val table : title:string -> header:string list -> rows:string list list -> unit
(** Print an aligned table to stdout. *)

val series :
  title:string ->
  ?x_label:string ->
  ?y_label:string ->
  (float * float) list ->
  unit
(** Print a series as an ASCII scatter/line plot plus the raw points. *)

val fmt_f : float -> string
(** Compact float: 3 significant-ish decimals. *)
