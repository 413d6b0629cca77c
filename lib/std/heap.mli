(** Array-backed binary min-heap.

    Used by OSPF's SPF runs and the embedder's path search, and as the
    pop-order oracle of {!Eventq}, the engine's event queue.  Elements are ordered by a comparison function supplied at
    creation; ties are broken by insertion order so the heap is stable,
    which keeps simulation runs deterministic when many elements compare
    equal.

    Complexity: {!push} and {!pop} are O(log n); {!peek}, {!length} and
    {!is_empty} are O(1).  The backing array doubles on demand and is
    never shrunk. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** O(log n) amortized (worst case O(n) when the backing array grows). *)

val peek : 'a t -> 'a option
(** Smallest element without removing it, O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element, O(log n).  Among elements
    that compare equal, the one pushed first pops first (stability). *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of the contents in arbitrary order. *)
