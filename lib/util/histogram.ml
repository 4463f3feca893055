(* Buckets: values < 64 are exact; above that, each power of two is split
   into 32 linear sub-buckets, giving <= ~3% relative bucket width. A
   power of two's row of sub-buckets is allocated at its first sample:
   latencies span a few powers of two, and a histogram is created fresh
   in every run that samples, so a flat array over all 64 would be
   mostly zeros to allocate and fill. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let linear_limit = 64

type t = {
  mutable count : int;
  sum : float array;
      (* one-element float array: unboxed in-place accumulation, where a
         mutable float field in this mixed record would box every set *)
  mutable max_v : int;
  linear : int array; (* exact counts of the values below [linear_limit] *)
  rows : int array array; (* [rows.(msb)]: values in [2^msb, 2^(msb+1)) *)
}

let no_row = [||]

let create () =
  { count = 0; sum = [| 0.0 |]; max_v = 0;
    linear = Array.make linear_limit 0; rows = Array.make 63 no_row }

let add t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum.(0) <- t.sum.(0) +. float_of_int v;
  if v > t.max_v then t.max_v <- v;
  if v < linear_limit then t.linear.(v) <- t.linear.(v) + 1
  else begin
    let msb = 62 - Bits.clz v in
    (* v in [2^msb, 2^(msb+1)); sub-bucket from the next bits *)
    let sub = (v lsr (msb - sub_bits)) land (sub_count - 1) in
    let row = t.rows.(msb) in
    let row =
      if row != no_row then row
      else begin
        let r = Array.make sub_count 0 in
        t.rows.(msb) <- r;
        r
      end
    in
    row.(sub) <- row.(sub) + 1
  end

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.sum.(0) /. float_of_int t.count
let max_value t = t.max_v

(* The upper edge of the first bucket where the running count reaches
   [target], capped at the largest sample; [seen] counts the buckets
   before it. The linear part first, then each allocated row. *)
let rec scan_linear t target i seen =
  if i >= linear_limit then scan_rows t target 0 seen
  else
    let seen = seen + t.linear.(i) in
    if seen >= target then min i t.max_v else scan_linear t target (i + 1) seen

and scan_rows t target msb seen =
  if msb >= Array.length t.rows then t.max_v
  else
    let row = t.rows.(msb) in
    if row == no_row then scan_rows t target (msb + 1) seen
    else scan_row t target msb row 0 seen

and scan_row t target msb row sub seen =
  if sub >= sub_count then scan_rows t target (msb + 1) seen
  else
    let seen = seen + row.(sub) in
    if seen >= target then
      min ((1 lsl msb) + ((sub + 1) lsl (msb - sub_bits)) - 1) t.max_v
    else scan_row t target msb row (sub + 1) seen

let percentile t p =
  if t.count = 0 then 0
  else begin
    let target =
      let f = Float.of_int t.count *. p /. 100.0 in
      let n = int_of_float (Float.ceil f) in
      if n < 1 then 1 else if n > t.count then t.count else n
    in
    scan_linear t target 0 0
  end
