(* Log-scale bucketed latency histogram.

   Bucket boundaries are powers of gamma = 10^(1/buckets_per_decade), so a
   sample lands in bucket floor(log10 x * buckets_per_decade).  With 20
   buckets per decade the relative width of a bucket is ~12%, and reporting
   the geometric midpoint keeps the quantile error under ~6% — plenty for
   p50/p95/p99 of scheduling and forwarding latencies, at O(1) memory
   regardless of sample count (contrast Stats, which keeps every sample). *)

let buckets_per_decade = 20

(* Index range covers 1e-10 .. 1e10 seconds-ish; everything outside clamps
   into the first/last bucket. *)
let min_idx = -10 * buckets_per_decade
let max_idx = 10 * buckets_per_decade
let n_buckets = max_idx - min_idx + 1

type t = {
  counts : int array;
  mutable nonpositive : int; (* samples <= 0, kept out of the log buckets *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Array.make n_buckets 0;
    nonpositive = 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let idx_of x =
  let i =
    int_of_float (Float.floor (Float.log10 x *. float_of_int buckets_per_decade))
  in
  Stdlib.max min_idx (Stdlib.min max_idx i)

let lower_bound idx = 10.0 ** (float_of_int idx /. float_of_int buckets_per_decade)
let upper_bound idx = 10.0 ** (float_of_int (idx + 1) /. float_of_int buckets_per_decade)

(* Geometric midpoint: the representative value reported for a bucket. *)
let midpoint idx =
  10.0 ** ((float_of_int idx +. 0.5) /. float_of_int buckets_per_decade)

let add t x =
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  if x > 0.0 then begin
    let i = idx_of x - min_idx in
    t.counts.(i) <- t.counts.(i) + 1
  end
  else t.nonpositive <- t.nonpositive + 1

let count t = t.count
let is_empty t = t.count = 0
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min t = if t.count = 0 then 0.0 else t.min_v
let max t = if t.count = 0 then 0.0 else t.max_v

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let rank =
      let r =
        int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count))
      in
      Stdlib.max 1 (Stdlib.min t.count r)
    in
    if rank <= t.nonpositive then Stdlib.min 0.0 t.min_v
    else begin
      let remaining = ref (rank - t.nonpositive) in
      let result = ref t.max_v in
      (try
         for i = 0 to n_buckets - 1 do
           if t.counts.(i) > 0 then begin
             remaining := !remaining - t.counts.(i);
             if !remaining <= 0 then begin
               result := midpoint (i + min_idx);
               raise Exit
             end
           end
         done
       with Exit -> ());
      (* Clamp to observed extremes so tiny histograms stay sane. *)
      Float.min t.max_v (Float.max t.min_v !result)
    end
  end

let buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := (lower_bound (i + min_idx), upper_bound (i + min_idx), t.counts.(i)) :: !acc
  done;
  if t.nonpositive > 0 then (neg_infinity, 0.0, t.nonpositive) :: !acc else !acc

let merge a b =
  let t = create () in
  Array.blit a.counts 0 t.counts 0 n_buckets;
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
  t.nonpositive <- a.nonpositive + b.nonpositive;
  t.count <- a.count + b.count;
  t.sum <- a.sum +. b.sum;
  t.min_v <- Float.min a.min_v b.min_v;
  t.max_v <- Float.max a.max_v b.max_v;
  t

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.nonpositive <- 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity
