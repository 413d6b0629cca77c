(** A minimal JSON tree, printer and parser.

    The repository deliberately has no JSON dependency; every exporter's
    needs (finite floats, plain ASCII-ish strings, round-trippable output
    for tests and CI artifacts) fit in a page of code.  This module is the
    single shared implementation: {!Vini_measure.Export} re-exports it for
    the measurement documents, and the scenario generator uses it directly
    for [vini.topo/1] substrate files, so the two layers stay decoupled.

    Printing is deterministic: field order is the construction order and
    float formatting is locale-independent, so a document built from
    deterministic inputs is byte-identical across runs, hosts, and domain
    counts (the CI determinism gates [cmp] exported files). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact JSON.  Non-finite floats degrade: NaN to [null], infinities to
    [±1e999] (which parse back as infinities). *)

val of_string : string -> (t, string) result
(** Strict parser for documents produced by {!to_string} (and ordinary
    JSON): no trailing garbage, strings with the usual escapes. *)


(** {2 Accessors} (for tests and consumers) *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option
