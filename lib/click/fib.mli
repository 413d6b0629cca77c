(** Longest-prefix-match forwarding table: a path-compressed binary trie
    fronted by a direct-mapped flow cache.

    The FIB each Click instance holds (Figure 1): XORP populates it with
    prefix → next-hop entries; the data plane looks packets up per
    destination address.  Values are arbitrary, so the same structure
    serves the IIAS overlay FIB (next hop = neighbour virtual address),
    the encapsulation table, and test fixtures.

    {b Data structure.}  Nodes exist only at branching points and at
    inserted prefixes (path compression), so {!lookup} walks
    O(log entries) nodes on random tables — bounded by 32 — instead of
    one node per bit, and allocates nothing on the hot path.  In front of
    the trie sits a 256-slot direct-mapped per-destination cache: a hit
    answers in O(1); any {!add}/{!remove}/{!clear} invalidates the whole
    cache in O(1) by bumping a generation counter, so a stale entry can
    never be served after a route change.  {!cache_hits}/{!cache_misses}
    expose the cache's effectiveness (exported per virtual node via
    [Vini_overlay.Iias.fib_cache_stats]).

    {b Determinism.}  Lookup answers are a pure function of the table
    contents (the cache is a transparent memo), and match the reference
    one-bit-per-node trie [Vini_oracle.Fib_reference] (test/oracle/) bit
    for bit — property-tested on randomized tables. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> Vini_net.Prefix.t -> 'a -> unit
(** Insert or replace the entry for a prefix.  O(32) worst case;
    invalidates the flow cache. *)

val remove : 'a t -> Vini_net.Prefix.t -> unit
(** No-op when absent (and then does not invalidate the cache). *)

val lookup : 'a t -> Vini_net.Addr.t -> 'a option
(** Longest matching prefix's value.  O(1) on a cache hit, O(branching
    nodes) ≤ O(32) on a miss; allocation-free. *)

val lookup_prefix : 'a t -> Vini_net.Addr.t -> (Vini_net.Prefix.t * 'a) option
(** Also reports which prefix matched.  Always walks the trie (no cache). *)

val entries : 'a t -> (Vini_net.Prefix.t * 'a) list
(** Sorted by (network, length). *)

val length : 'a t -> int
val clear : 'a t -> unit

val cache_hits : 'a t -> int
(** Lookups answered by the flow cache since creation. *)

val cache_misses : 'a t -> int
(** Lookups that had to walk the trie (including every first lookup after
    a table update, since updates invalidate the cache). *)

val generation : 'a t -> int
(** The flow-cache generation counter: bumped by every {!add}, {!remove}
    of a present prefix, and {!clear}.  A batched forwarding loop that
    memoises one lookup result across consecutive same-destination
    packets must compare generations before reusing it — a control
    packet routed mid-batch can update the table, and the memo must
    never outlive the cache it shadows. *)
