module Prefix = Vini_net.Prefix
module Addr = Vini_net.Addr

(* Path-compressed binary trie: every node carries its full (network,
   length) prefix, children extend the parent's prefix by at least one
   bit, and single-child chains with no value are never materialized —
   a lookup touches one node per *branching point* on the path, not one
   per bit.  Addresses and networks are plain ints with the network bits
   left-aligned in the low 32 bits (as in {!Vini_net.Addr}). *)

type 'a node = {
  mutable net : int;  (* masked network bits of this node's prefix *)
  mutable plen : int; (* prefix length, 0..32 *)
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

(* Direct-mapped flow cache in front of the trie: per-destination lookup
   results, invalidated wholesale by bumping [gen] on any table update
   (slots carry the generation they were filled in, so invalidation is
   O(1) and stale slots just miss). *)
type 'a slot = {
  mutable s_addr : int;
  mutable s_gen : int;
  mutable s_res : 'a option;
}

type 'a t = {
  mutable root : 'a node;
  mutable count : int;
  cache : 'a slot array;
  mutable gen : int;
  mutable hits : int;
  mutable misses : int;
}

let cache_bits = 8
let cache_size = 1 lsl cache_bits

let fresh_node ~net ~plen =
  { net; plen; value = None; zero = None; one = None }

let create () =
  {
    root = fresh_node ~net:0 ~plen:0;
    count = 0;
    cache =
      Array.init cache_size (fun _ -> { s_addr = 0; s_gen = 0; s_res = None });
    gen = 1;
    hits = 0;
    misses = 0;
  }

let masks =
  Array.init 33 (fun len ->
      if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF)

let bit_at x i = (x lsr (31 - i)) land 1

(* Leading equal bits of two 32-bit values, capped at [limit]. *)
let common_len a b limit =
  let x = a lxor b in
  if x = 0 then limit
  else begin
    let n = ref 0 and x = ref x in
    if !x land 0xFFFF0000 = 0 then begin n := !n + 16; x := !x lsl 16 end;
    if !x land 0xFF000000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
    if !x land 0xF0000000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
    if !x land 0xC0000000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
    if !x land 0x80000000 = 0 then incr n;
    min !n limit
  end

let invalidate t = t.gen <- t.gen + 1

let child n b = if b = 0 then n.zero else n.one
let set_child n b c = if b = 0 then n.zero <- c else n.one <- c

let add t prefix v =
  let len = Prefix.length prefix in
  let net = Addr.to_int (Prefix.network prefix) in
  (* Descend to the insertion point, splitting the edge where the new
     prefix diverges from (or ends inside) an existing node's path. *)
  let rec graft opt =
    match opt with
    | None ->
        t.count <- t.count + 1;
        let n = fresh_node ~net ~plen:len in
        n.value <- Some v;
        Some n
    | Some n ->
        let c = common_len net n.net (min len n.plen) in
        if c = n.plen then
          if c = len then begin
            (* Exact node for this prefix. *)
            if n.value = None then t.count <- t.count + 1;
            n.value <- Some v;
            opt
          end
          else begin
            (* n's prefix is a proper prefix of ours: descend. *)
            let b = bit_at net n.plen in
            set_child n b (graft (child n b));
            opt
          end
        else begin
          (* Diverges inside n's path: split at c. *)
          let mid = fresh_node ~net:(net land masks.(c)) ~plen:c in
          set_child mid (bit_at n.net c) (Some n);
          if c = len then begin
            t.count <- t.count + 1;
            mid.value <- Some v
          end
          else begin
            t.count <- t.count + 1;
            let leaf = fresh_node ~net ~plen:len in
            leaf.value <- Some v;
            set_child mid (bit_at net c) (Some leaf)
          end;
          Some mid
        end
  in
  (* The root is the /0 node; len=0 updates it in place. *)
  if len = 0 then begin
    if t.root.value = None then t.count <- t.count + 1;
    t.root.value <- Some v
  end
  else begin
    let b = bit_at net 0 in
    set_child t.root b (graft (child t.root b))
  end;
  invalidate t

let remove t prefix =
  let len = Prefix.length prefix in
  let net = Addr.to_int (Prefix.network prefix) in
  let rec descend n =
    if n.plen = len && n.net = net then begin
      if n.value <> None then begin
        t.count <- t.count - 1;
        n.value <- None;
        invalidate t
      end
    end
    else if n.plen < len && net land masks.(n.plen) = n.net then
      match child n (bit_at net n.plen) with
      | Some c -> descend c
      | None -> ()
  in
  descend t.root

(* The hot path: zero allocation — the returned option is the one stored
   in the matching node, and misses walk at most one node per branching
   point.  [addr] is the raw int form. *)
let lookup_trie t addr =
  let rec go n best =
    let best = match n.value with Some _ -> n.value | None -> best in
    if n.plen >= 32 then best
    else
      match child n (bit_at addr n.plen) with
      | Some c when addr land masks.(c.plen) = c.net -> go c best
      | Some _ | None -> best
  in
  go t.root None

(* The xor of all four octets, so destinations that differ in any one
   octet (10.9.0.1 and 10.9.1.1, say) land in different slots. *)
let cache_index addr =
  let h = addr lxor (addr lsr 16) in
  (h lxor (h lsr 8)) land (cache_size - 1)

let lookup t addr_t =
  let addr = Addr.to_int addr_t in
  let s = t.cache.(cache_index addr) in
  if s.s_gen = t.gen && s.s_addr = addr then begin
    t.hits <- t.hits + 1;
    s.s_res
  end
  else begin
    t.misses <- t.misses + 1;
    let res = lookup_trie t addr in
    s.s_addr <- addr;
    s.s_gen <- t.gen;
    s.s_res <- res;
    res
  end

let lookup_prefix t addr_t =
  let addr = Addr.to_int addr_t in
  let rec go n best =
    let best = match n.value with Some _ -> Some n | None -> best in
    if n.plen >= 32 then best
    else
      match child n (bit_at addr n.plen) with
      | Some c when addr land masks.(c.plen) = c.net -> go c best
      | Some _ | None -> best
  in
  match go t.root None with
  | Some n -> (
      match n.value with
      | Some v -> Some (Prefix.make (Addr.of_int n.net) n.plen, v)
      | None -> None)
  | None -> None

let entries t =
  let acc = ref [] in
  let rec walk n =
    (match n.value with
    | Some v -> acc := (Prefix.make (Addr.of_int n.net) n.plen, v) :: !acc
    | None -> ());
    (match n.zero with Some c -> walk c | None -> ());
    match n.one with Some c -> walk c | None -> ()
  in
  walk t.root;
  List.sort (fun (p1, _) (p2, _) -> Prefix.compare p1 p2) !acc

let length t = t.count

let clear t =
  t.root <- fresh_node ~net:0 ~plen:0;
  t.count <- 0;
  invalidate t

let cache_hits t = t.hits
let cache_misses t = t.misses
let generation t = t.gen
