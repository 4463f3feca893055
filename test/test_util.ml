module Rng = Msnap_util.Rng
module Dist = Msnap_util.Dist
module Histogram = Msnap_util.Histogram
module Bits = Msnap_util.Bits
module Tbl = Msnap_util.Tbl
module Size = Msnap_util.Size

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seed, different value" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 7 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    checkb "in range" true (v >= -5 && v <= 5)
  done

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    checkb "[0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  checkb "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 16 buckets over 64k draws each ~4096. *)
  let rng = Rng.create 99 in
  let buckets = Array.make 16 0 in
  for _ = 1 to 65536 do
    let v = Rng.int rng 16 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter (fun c -> checkb "bucket near uniform" true (c > 3600 && c < 4600)) buckets

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_bytes_len () =
  let rng = Rng.create 1 in
  checki "length" 33 (Bytes.length (Rng.bytes rng 33))

(* The Splitmix kernel under Rng and Wire's C checksum kernel must be
   bit-exact with plain boxed Int64 formulations: RNG draw sequences are
   simulated values and checksum bytes are media format. This is the
   Int64 reference for both. *)
module Ref64 = struct
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix t.state

  let split t = { state = bits64 t }
  let int t bound = Int64.to_int (bits64 t) land max_int mod bound
  let int_in t lo hi = lo + int t (hi - lo + 1)

  let float t =
    Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

  let bool t = Int64.logand (bits64 t) 1L = 1L

  (* Wire's kernel: lane [k] starts at the mixed [init] and adds, for
     word [w] at [8s + k] of each 64-byte stripe [s], lo32 x * hi32 x + w
     with x = w xor (key k + s * gamma). The lanes then fold into the
     hash in order, followed by the leftover words, the tail bytes
     (first byte most significant) and [len]. *)
  let lane_key =
    [| 0x6A09E667F3BCC908L; 0xBB67AE8584CAA73BL; 0x3C6EF372FE94F82BL;
       0xA54FF53A5F1D36F1L; 0x510E527FADE682D1L; 0x9B05688C2B3E6C1FL;
       0x1F83D9ABFB41BD6BL; 0x5BE0CD19137E2179L |]

  let checksum ?(init = 0x5DEECE66D) b ~pos ~len =
    let open Int64 in
    let seed = mix (of_int init) in
    let word i = Bytes.get_int64_le b (pos + (8 * i)) in
    let stripes = len / 64 in
    let h = ref seed in
    if stripes > 0 then begin
      let acc = Array.make 8 seed in
      for s = 0 to stripes - 1 do
        for k = 0 to 7 do
          let w = word ((8 * s) + k) in
          let x = logxor w (add lane_key.(k) (mul (of_int s) 0x9E3779B97F4A7C15L)) in
          let lo = logand x 0xFFFFFFFFL and hi = shift_right_logical x 32 in
          acc.(k) <- add acc.(k) (add (mul lo hi) w)
        done
      done;
      Array.iter (fun a -> h := mix (add !h a)) acc
    end;
    for i = 8 * stripes to (len / 8) - 1 do
      h := mix (add !h (word i))
    done;
    let tail = ref 0 in
    for i = pos + (len / 8 * 8) to pos + len - 1 do
      tail := (!tail lsl 8) lor Char.code (Bytes.get b i)
    done;
    if len mod 8 <> 0 then h := mix (add !h (of_int !tail));
    to_int (mix (add !h (of_int len))) land Stdlib.max_int
end

let prop_rng_differential =
  QCheck.Test.make ~count:200 ~name:"rng matches Int64 reference"
    QCheck.(small_int)
    (fun seed ->
      (* Exercise negative seeds too. *)
      let seed = if seed mod 3 = 0 then -seed * 7919 else seed in
      let a = Rng.create seed and r = Ref64.create seed in
      let ok = ref true in
      for i = 1 to 200 do
        (match i mod 5 with
        | 0 -> ok := !ok && Rng.bits64 a = Ref64.bits64 r
        | 1 -> ok := !ok && Rng.int a (1 + i) = Ref64.int r (1 + i)
        | 2 -> ok := !ok && Rng.float a = Ref64.float r
        | 3 -> ok := !ok && Rng.bool a = Ref64.bool r
        | _ -> ok := !ok && Rng.int_in a (-3) 999 = Ref64.int_in r (-3) 999)
      done;
      (* split: both the child stream and the advanced parent agree. *)
      let a2 = Rng.split a and r2 = Ref64.split r in
      for _ = 1 to 50 do
        ok := !ok && Rng.bits64 a2 = Ref64.bits64 r2;
        ok := !ok && Rng.bits64 a = Ref64.bits64 r
      done;
      (* bytes/string draw per-byte like [int _ 256]. *)
      let s = Rng.string a 32 in
      for i = 0 to 31 do
        ok := !ok && Char.code s.[i] = Ref64.int r 256
      done;
      !ok)

let prop_checksum_differential =
  QCheck.Test.make ~count:500 ~name:"wire checksum matches Int64 reference"
    QCheck.(pair (bytes_of_size Gen.(int_range 0 600)) small_int)
    (fun (b, salt) ->
      let pos = salt mod 8 mod (Bytes.length b + 1) in
      let len = Bytes.length b - pos in
      let init = if salt mod 3 = 0 then salt * 7919 land max_int else 0x5DEECE66D in
      Msnap_util.Wire.chain ~init b ~pos ~len
      = Ref64.checksum ~init b ~pos ~len)

let test_checksum_long () =
  (* Cover multi-page lengths (beyond qcheck's small payloads), every
     remainder around a page, and chained inits, as the WAL uses them,
     at every start alignment: the kernel reads unaligned 64-bit
     words. *)
  let rng = Rng.create 4242 in
  let b = Rng.bytes rng 16384 in
  for pos = 0 to 7 do
    let prev = ref 0x5DEECE66D in
    List.iter
      (fun len ->
        let len = min len (Bytes.length b - pos) in
        let a = Msnap_util.Wire.chain ~init:!prev b ~pos ~len in
        let r = Ref64.checksum ~init:!prev b ~pos ~len in
        checkb (Printf.sprintf "chained checksum pos %d len %d" pos len) true
          (a = r);
        prev := a)
      (List.init 72 Fun.id
      @ List.init 33 (fun i -> 4095 + i)
      @ [ 8192; 12288; 16381 ])
  done

(* The media format as numbers: a later edit to the kernel that the
   reference follows by mistake still fails here. One input is a page,
   the other a stripe, a leftover word and five tail bytes. *)
let test_checksum_golden () =
  let page = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  checki "4 KiB page" 2421735050161714597
    (Msnap_util.Wire.checksum page ~pos:0 ~len:4096);
  let odd = Bytes.init 77 (fun i -> Char.chr (((i * 31) + 5) land 0xff)) in
  checki "77 bytes, init 42" 4134258012900898372
    (Msnap_util.Wire.chain ~init:42 odd ~pos:0 ~len:77)

(* A torn 4 KiB write leaves a sector prefix of the new page over the
   old one. Pages that differ in every 512-byte sector must give every
   1-7 sector tear a checksum of its own, or recovery could accept it. *)
let prop_checksum_torn =
  QCheck.Test.make ~count:100 ~name:"checksum tells torn pages apart"
    QCheck.(pair small_int small_int)
    (fun (seed, salt) ->
      let rng = Rng.create ((seed * 65537) + salt) in
      let old_page = Rng.bytes rng 4096 in
      let new_page = Bytes.copy old_page in
      for sector = 0 to 7 do
        let i = (sector * 512) + Rng.int rng 512 in
        let flip = 1 + Rng.int rng 255 in
        Bytes.set new_page i (Char.chr (Char.code (Bytes.get old_page i) lxor flip))
      done;
      let ck b = Msnap_util.Wire.checksum b ~pos:0 ~len:4096 in
      let c_old = ck old_page and c_new = ck new_page in
      c_old <> c_new
      && List.for_all
           (fun k ->
             let torn = Bytes.copy old_page in
             Bytes.blit new_page 0 torn 0 (k * 512);
             let c = ck torn in
             c <> c_old && c <> c_new)
           [ 1; 2; 3; 4; 5; 6; 7 ])

(* Every single-bit flip anywhere in a page changes its sum. A flip of
   bit [b] moves [w] by 2^b and the lane's product by 2^b times the
   other half of [x]; the two cancel only when that half is exactly 1. *)
let prop_checksum_bit_flips =
  QCheck.Test.make ~count:10 ~name:"checksum sees every single-bit flip"
    QCheck.small_int
    (fun seed ->
      let page = Rng.bytes (Rng.create (seed + 1)) 4096 in
      let ck () = Msnap_util.Wire.checksum page ~pos:0 ~len:4096 in
      let c0 = ck () in
      let ok = ref true in
      for bit = 0 to (8 * 4096) - 1 do
        let i = bit / 8 and m = 1 lsl (bit mod 8) in
        let flip () = Bytes.set page i (Char.chr (Char.code (Bytes.get page i) lxor m)) in
        flip ();
        if ck () = c0 then ok := false;
        flip ()
      done;
      !ok)

(* Swapping two 512-byte sectors of a page changes its sum: each word's
   key depends on its offset, not only on its content. *)
let prop_checksum_sector_swap =
  QCheck.Test.make ~count:200 ~name:"checksum sees two sectors swapped"
    QCheck.(triple small_int (int_bound 7) (int_bound 6))
    (fun (seed, a, d) ->
      let b = (a + 1 + d) mod 8 in
      let page = Rng.bytes (Rng.create (seed + 1)) 4096 in
      let ck p = Msnap_util.Wire.checksum p ~pos:0 ~len:4096 in
      let swapped = Bytes.copy page in
      Bytes.blit page (a * 512) swapped (b * 512) 512;
      Bytes.blit page (b * 512) swapped (a * 512) 512;
      ck swapped <> ck page)

(* [words f] is the minor words allocated by 1000 calls of [f], after
   one warm-up call. *)
let words f =
  f ();
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. m0

let test_rng_alloc_free () =
  let rng = Rng.create 7 in
  checkb "Rng.int allocates nothing" true
    (words (fun () -> ignore (Rng.int rng 1000)) = 0.0)

let test_rng_bool_alloc_free () =
  let rng = Rng.create 7 in
  checkb "Rng.bool allocates nothing" true
    (words (fun () -> ignore (Rng.bool rng)) = 0.0)

let test_rng_float_alloc_free () =
  (* The draw itself allocates nothing. A float returned from another
     module is boxed (2 words) unless the call is inlined, which the dev
     profile's -opaque forbids, so that box is the only allowance. *)
  let rng = Rng.create 7 in
  let acc = [| 0.0 |] in
  let w = words (fun () -> acc.(0) <- acc.(0) +. Rng.float rng) in
  checkb "Rng.float allocates at most its result box" true
    (w = 0.0 || w = 2000.0);
  checkb "draws in [0,1)" true (acc.(0) >= 0.0 && acc.(0) < 1001.0)

let test_checksum_alloc_free () =
  let page = Rng.bytes (Rng.create 9) 4096 in
  let sum = ref 0 in
  checkb "Wire.checksum allocates nothing" true
    (words (fun () ->
         sum := !sum lxor Msnap_util.Wire.checksum page ~pos:0 ~len:4096)
    = 0.0);
  checkb "Wire.chain allocates nothing" true
    (words (fun () ->
         sum := Msnap_util.Wire.chain ~init:!sum page ~pos:0 ~len:4096)
    = 0.0)

(* --- Keyfmt / Intern --- *)

module Keyfmt = Msnap_util.Keyfmt
module Intern = Msnap_util.Intern

let prop_keyfmt_differential =
  (* The full driver key grammar, against its sprintf reference. *)
  QCheck.Test.make ~count:500 ~name:"keyfmt matches sprintf"
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let render f =
        let t = Keyfmt.scratch () in
        f t;
        Keyfmt.str t
      in
      render (fun t -> Keyfmt.dec t ~width:20 a) = Printf.sprintf "%020d" a
      && render (fun t ->
             Keyfmt.char t 'w';
             Keyfmt.dec t ~width:4 a;
             Keyfmt.lit t "-d";
             Keyfmt.dec t ~width:2 b;
             Keyfmt.lit t "-c";
             Keyfmt.dec t ~width:5 c)
         = Printf.sprintf "w%04d-d%02d-c%05d" a b c
      && render (fun t ->
             Keyfmt.char t 'o';
             Keyfmt.dec t ~width:9 d;
             Keyfmt.lit t "-l";
             Keyfmt.dec t ~width:2 b)
         = Printf.sprintf "o%09d-l%02d" d b
      && render (fun t ->
             Keyfmt.lit t "item=";
             Keyfmt.dec t ~width:0 a;
             Keyfmt.lit t " qty=";
             Keyfmt.dec t ~width:0 b)
         = Printf.sprintf "item=%d qty=%d" a b
      && render (fun t ->
             Keyfmt.lit t "sub";
             Keyfmt.dec t ~width:8 c)
         = Printf.sprintf "sub%08d" c)

let prop_keyfmt_negative =
  QCheck.Test.make ~count:200 ~name:"keyfmt dec handles negatives"
    QCheck.(pair int (int_range 0 12))
    (fun (v, width) ->
      let t = Keyfmt.scratch () in
      Keyfmt.dec t ~width v;
      Keyfmt.str t = Printf.sprintf "%0*d" width v)

let test_keyfmt_table () =
  let t = Keyfmt.table 100 (fun b i -> Keyfmt.dec b ~width:20 i) in
  for i = 0 to 99 do
    check Alcotest.string "table entry" (Printf.sprintf "%020d" i) t.(i)
  done

let prop_intern_content_identity =
  QCheck.Test.make ~count:200 ~name:"intern fill content identity"
    QCheck.(pair (int_range 0 300) (int_range 0 255))
    (fun (n, code) ->
      let c = Char.chr code in
      let a = Intern.fill n c in
      (* content equal to the String.make it replaces, and the repeat
         call returns the same physical string (no new allocation). *)
      a = String.make n c && Intern.fill n c == a)

let test_intern_memo () =
  let calls = ref 0 in
  let f =
    Intern.memo ~max:10 (fun i ->
        incr calls;
        string_of_int (i * i))
  in
  check Alcotest.string "memo value" "49" (f 7);
  check Alcotest.string "memo repeat" "49" (f 7);
  checki "rendered once" 1 !calls;
  checkb "cached physical identity" true (f 7 == f 7);
  (* out of range falls through, uncached *)
  check Alcotest.string "out of range" "144" (f 12);
  check Alcotest.string "out of range repeat" "144" (f 12);
  checki "uncached calls" 3 !calls

(* --- Dist --- *)

let test_dist_domains () =
  let rng = Rng.create 21 in
  List.iter
    (fun d ->
      for _ = 1 to 5_000 do
        let v = Dist.sample d rng in
        checkb "in domain" true (v >= 0 && v < 1000)
      done)
    [ Dist.uniform 1000; Dist.pareto 1000 ]

let test_pareto_skew () =
  let rng = Rng.create 34 in
  let d = Dist.pareto 10_000 in
  let low = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Dist.sample d rng < 2_000 then incr low
  done;
  checkb "mass concentrated low" true (!low > n / 2)

(* --- Histogram --- *)

let test_hist_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5 ];
  checki "count" 5 (Histogram.count h);
  check Alcotest.(float 0.001) "mean" 3.0 (Histogram.mean h);
  checki "max" 5 (Histogram.max_value h);
  checki "min" 1 (Histogram.min_value h);
  checki "p50" 3 (Histogram.percentile h 50.0)

let test_hist_p99 () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h i
  done;
  let p99 = Histogram.percentile h 99.0 in
  checkb "p99 ~990" true (p99 >= 985 && p99 <= 1000)

let test_hist_relative_error () =
  let h = Histogram.create () in
  Histogram.add h 1_000_000;
  let p = Histogram.percentile h 100.0 in
  checkb "bounded error" true (abs (p - 1_000_000) <= 1_000_000 / 16)

let test_hist_empty () =
  let h = Histogram.create () in
  checki "count" 0 (Histogram.count h);
  checki "p99 empty" 0 (Histogram.percentile h 99.0);
  check Alcotest.(float 0.0) "mean" 0.0 (Histogram.mean h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10;
  Histogram.add b 20;
  Histogram.merge a b;
  checki "count" 2 (Histogram.count a);
  checki "max" 20 (Histogram.max_value a)

let test_hist_clear () =
  let h = Histogram.create () in
  Histogram.add h 5;
  Histogram.clear h;
  checki "count" 0 (Histogram.count h)

let test_hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  checki "clamped" 0 (Histogram.min_value h)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile monotone in p"
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 1_000_000))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let prev = ref 0 in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h (float_of_int p) in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 1; 10; 25; 50; 75; 90; 99; 100 ])

let prop_hist_percentile_bounds =
  QCheck.Test.make ~count:200 ~name:"p100 within bucket error of max"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000_000))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let mx = List.fold_left max 0 samples in
      Histogram.percentile h 100.0 <= mx && Histogram.max_value h = mx)

(* --- Bits --- *)

let test_bits_clz () =
  checki "clz 1" 62 (Bits.clz 1);
  checki "clz 0" 63 (Bits.clz 0);
  checki "clz 2^62" 0 (Bits.clz (1 lsl 62));
  checki "clz 255" 55 (Bits.clz 255)

let test_bits_ceil_log2 () =
  checki "1" 0 (Bits.ceil_log2 1);
  checki "2" 1 (Bits.ceil_log2 2);
  checki "3" 2 (Bits.ceil_log2 3);
  checki "4" 2 (Bits.ceil_log2 4);
  checki "1025" 11 (Bits.ceil_log2 1025)

let test_bits_round () =
  checki "up" 8192 (Bits.round_up 4097 4096);
  checki "up exact" 4096 (Bits.round_up 4096 4096);
  checki "down" 4096 (Bits.round_down 8191 4096);
  checkb "pow2" true (Bits.is_pow2 4096);
  checkb "not pow2" false (Bits.is_pow2 4097)

let prop_clz_consistent =
  QCheck.Test.make ~count:500 ~name:"clz agrees with float log"
    QCheck.(int_range 1 max_int)
    (fun v ->
      let msb = 62 - Bits.clz v in
      v >= 1 lsl msb && (msb >= 61 || v < 1 lsl (msb + 1)))

(* --- Tbl / Size --- *)

let test_tbl_render () =
  let t = Tbl.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Tbl.row t [ "x"; "1" ];
  Tbl.rule t;
  Tbl.row t [ "y" ];
  Tbl.note t "n";
  let s = Tbl.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  checkb "has note" true
    (String.length s > 10
    && (let rec find i =
          i + 5 <= String.length s
          && (String.sub s i 5 = "note:" || find (i + 1))
        in
        find 0))

let test_fmt_helpers () =
  check Alcotest.string "us" "51.4" (Tbl.us 51_400);
  check Alcotest.string "us_short small" "156" (Tbl.us_short 156_000);
  check Alcotest.string "us_short K" "1.9K" (Tbl.us_short 1_900_000);
  check Alcotest.string "kcount" "63.1 K" (Tbl.kcount 63_100);
  check Alcotest.string "pct" "29.15%" (Tbl.pct 29.15)

let test_size () =
  checki "kib" 4096 (Size.kib 4);
  checki "mib" 1048576 (Size.mib 1);
  check Alcotest.string "pp KiB" "4 KiB" (Size.pp 4096);
  check Alcotest.string "pp MiB" "1 MiB" (Size.pp (Size.mib 1));
  check Alcotest.string "pp B" "100 B" (Size.pp 100)

(* --- Itab / Iring / Fvec: flat hot-path structures --- *)

module Itab = Msnap_util.Itab
module Iring = Msnap_util.Iring
module Fvec = Msnap_util.Fvec

let test_itab_basics () =
  let t = Itab.create ~absent:(-1) () in
  checki "miss returns sentinel" (-1) (Itab.find t 5);
  checkb "not mem" false (Itab.mem t 5);
  Itab.set t 5 50;
  Itab.set t 0 7;
  checki "find" 50 (Itab.find t 5);
  checki "find key 0" 7 (Itab.find t 0);
  checki "length" 2 (Itab.length t);
  Itab.set t 5 51;
  checki "overwrite keeps length" 2 (Itab.length t);
  checki "overwritten" 51 (Itab.find t 5);
  Itab.remove t 5;
  checkb "removed" false (Itab.mem t 5);
  checki "length after remove" 1 (Itab.length t);
  Itab.remove t 5;
  checki "double remove harmless" 1 (Itab.length t);
  Itab.clear t;
  checki "cleared" 0 (Itab.length t);
  checki "find after clear" (-1) (Itab.find t 0)

let test_itab_slots () =
  let t = Itab.create ~absent:(-1) () in
  Itab.set t 9 90;
  let s = Itab.slot t 9 in
  checkb "slot found" true (s >= 0);
  checki "slot_value" 90 (Itab.slot_value t s);
  Itab.set_slot t s 91;
  checki "set_slot visible via find" 91 (Itab.find t 9);
  checki "absent slot" (-1) (Itab.slot t 10)

let test_itab_growth_and_tombstones () =
  (* Many insert/remove cycles over a growing key range: exercises
     rehash-on-grow and tombstone reuse in the open-addressed probe
     sequence. *)
  let t = Itab.create ~initial:4 ~absent:(-1) () in
  for k = 0 to 999 do
    Itab.set t k (k * 3)
  done;
  checki "grew to 1000" 1000 (Itab.length t);
  for k = 0 to 999 do
    if k mod 2 = 0 then Itab.remove t k
  done;
  checki "half removed" 500 (Itab.length t);
  for k = 0 to 999 do
    checki "survivors intact" (if k mod 2 = 0 then -1 else k * 3) (Itab.find t k)
  done;
  (* Re-insert through the tombstones. *)
  for k = 0 to 999 do
    Itab.set t k (k + 1)
  done;
  checki "refilled" 1000 (Itab.length t);
  let seen = ref 0 in
  Itab.iter (fun k v -> incr seen; checki "iter pair" (k + 1) v) t;
  checki "iter visits all" 1000 !seen

(* Removing every key reclaims every tombstone, so a table that is
   filled and emptied by removes again and again (a TLB flushed by
   popping its FIFO) never rehashes: nothing is allocated. Without the
   reclaim, the tombstones of out-of-order removes pile up until a
   rehash. *)
let test_itab_emptied_by_removes () =
  let t = Itab.create ~initial:64 ~absent:(-1) () in
  let rng = Random.State.make [| 23 |] in
  let rounds = 2000 and per_round = 24 in
  let keys = Array.init (rounds * per_round) (fun _ -> Random.State.int rng 1_000_000) in
  let order =
    Array.init rounds (fun _ ->
        let a = Array.init per_round Fun.id in
        for i = per_round - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a)
  in
  let b0 = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    for i = 0 to per_round - 1 do
      Itab.set t keys.((r * per_round) + i) i
    done;
    for i = 0 to per_round - 1 do
      Itab.remove t keys.((r * per_round) + order.(r).(i))
    done
  done;
  let words = Gc.minor_words () -. b0 in
  checki "emptied" 0 (Itab.length t);
  checkb "no rehash allocated" true (words = 0.0)

let prop_itab_model =
  (* Differential: random set/remove/clear sequences against
     (int, int) Hashtbl — contents and length must always agree. *)
  QCheck.Test.make ~count:300 ~name:"itab agrees with Hashtbl model"
    QCheck.(list_of_size Gen.(int_range 1 120)
              (pair (int_bound 9) (pair (int_bound 48) (int_bound 1000))))
    (fun ops ->
      let t = Itab.create ~initial:2 ~absent:(-1) () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (kind, (key, v)) ->
          match kind with
          | 0 | 1 | 2 | 3 | 4 ->
            Itab.set t key v;
            Hashtbl.replace model key v
          | 5 | 6 | 7 ->
            Itab.remove t key;
            Hashtbl.remove model key
          | 8 ->
            ignore (Itab.find t key);
            ignore (Itab.mem t key)
          | _ ->
            Itab.clear t;
            Hashtbl.reset model)
        ops;
      Itab.length t = Hashtbl.length model
      && List.for_all
           (fun key ->
             Itab.mem t key = Hashtbl.mem model key
             && Itab.find t key
                = (match Hashtbl.find_opt model key with
                  | Some v -> v
                  | None -> -1))
           (List.init 49 Fun.id))

let test_iring_fifo () =
  let r = Iring.create ~initial:2 () in
  checkb "empty" true (Iring.is_empty r);
  checki "pop empty" (-1) (Iring.pop r);
  for i = 1 to 10 do
    Iring.push r i
  done;
  checki "length" 10 (Iring.length r);
  for i = 1 to 10 do
    checki "FIFO order" i (Iring.pop r)
  done;
  checkb "drained" true (Iring.is_empty r);
  Iring.push r 42;
  Iring.clear r;
  checkb "cleared" true (Iring.is_empty r);
  checki "pop after clear" (-1) (Iring.pop r)

let prop_iring_model =
  (* Differential: random push/pop sequences against int Queue. The ring
     grows while wrapped, so interleavings matter. *)
  QCheck.Test.make ~count:300 ~name:"iring agrees with Queue model"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 20))
    (fun ops ->
      let r = Iring.create ~initial:2 () in
      let q : int Queue.t = Queue.create () in
      List.for_all
        (fun v ->
          if v < 14 then begin
            Iring.push r v;
            Queue.push v q;
            true
          end
          else
            let expect = if Queue.is_empty q then -1 else Queue.pop q in
            Iring.pop r = expect && Iring.length r = Queue.length q)
        ops
      && Iring.length r = Queue.length q)

let test_fvec_basics () =
  let v : int Fvec.t = Fvec.create () in
  checkb "empty" true (Fvec.is_empty v);
  for i = 0 to 9 do
    Fvec.push v i
  done;
  checki "length" 10 (Fvec.length v);
  checki "get" 7 (Fvec.get v 7);
  Fvec.set v 7 70;
  checki "set" 70 (Fvec.get v 7);
  checki "pop" 9 (Fvec.pop v);
  checki "pop shrinks" 9 (Fvec.length v);
  checkb "exists" true (Fvec.exists (fun x -> x = 70) v);
  checkb "not exists" false (Fvec.exists (fun x -> x = 9) v);
  let sum = ref 0 in
  Fvec.iter (fun x -> sum := !sum + x) v;
  checki "iter sum" (0 + 1 + 2 + 3 + 4 + 5 + 6 + 70 + 8) !sum;
  Fvec.clear v;
  checki "cleared" 0 (Fvec.length v);
  Fvec.push v 1;
  checki "reusable after clear" 1 (Fvec.length v);
  Fvec.reset v;
  checki "reset" 0 (Fvec.length v)

let test_fvec_swap_remove () =
  let v : int Fvec.t = Fvec.create () in
  List.iter (Fvec.push v) [ 10; 11; 12; 13 ];
  Fvec.swap_remove v 1; (* last element moves into slot 1 *)
  Alcotest.(check (list int)) "swap" [ 10; 13; 12 ] (Fvec.to_list v);
  Fvec.swap_remove v 2; (* removing the last is a plain pop *)
  Alcotest.(check (list int)) "remove last" [ 10; 13 ] (Fvec.to_list v)

let test_fvec_remove_at () =
  let v : int Fvec.t = Fvec.create () in
  List.iter (Fvec.push v) [ 10; 11; 12; 13 ];
  Fvec.remove_at v 1;
  Alcotest.(check (list int)) "order preserved" [ 10; 12; 13 ] (Fvec.to_list v);
  Fvec.remove_at v 2;
  Alcotest.(check (list int)) "remove last" [ 10; 12 ] (Fvec.to_list v);
  Fvec.remove_at v 0;
  Alcotest.(check (list int)) "remove head" [ 12 ] (Fvec.to_list v)

let test_fvec_index_phys () =
  let v : bytes Fvec.t = Fvec.create () in
  let a = Bytes.of_string "a" and b = Bytes.of_string "a" in
  Fvec.push v a;
  Fvec.push v b;
  checki "finds by identity" 0 (Fvec.index_phys v a);
  checki "structural equal but distinct" 1 (Fvec.index_phys v b);
  checki "absent" (-1) (Fvec.index_phys v (Bytes.of_string "a"))

let prop_fvec_remove_model =
  (* Differential: random push/remove_at/swap_remove/pop against a plain
     list model (remove_at must keep order; swap_remove moves the tail
     element into the hole). *)
  QCheck.Test.make ~count:300 ~name:"fvec agrees with list model"
    QCheck.(list_of_size Gen.(int_range 1 150)
              (pair (int_bound 9) (int_bound 1000)))
    (fun ops ->
      let v : int Fvec.t = Fvec.create () in
      let model = ref [] in
      let remove_nth i l = List.filteri (fun j _ -> j <> i) l in
      List.iter
        (fun (kind, x) ->
          let n = Fvec.length v in
          match kind with
          | 0 | 1 | 2 | 3 | 4 ->
            Fvec.push v x;
            model := !model @ [ x ]
          | 5 | 6 when n > 0 ->
            let i = x mod n in
            Fvec.remove_at v i;
            model := remove_nth i !model
          | 7 when n > 0 ->
            let i = x mod n in
            Fvec.swap_remove v i;
            let last = List.nth !model (n - 1) in
            model :=
              remove_nth (n - 1) (List.mapi (fun j y -> if j = i then last else y) !model)
          | 8 when n > 0 ->
            let got = Fvec.pop v in
            let expect = List.nth !model (n - 1) in
            if got <> expect then failwith "pop mismatch";
            model := remove_nth (n - 1) !model
          | _ -> ())
        ops;
      Fvec.to_list v = !model)

(* --- Slice --- *)

module Slice = Msnap_util.Slice

let slice_string s = Bytes.sub_string (Slice.buf s) (Slice.pos s) (Slice.length s)

let test_slice_windows () =
  let b = Bytes.of_string "abcdefgh" in
  let s = Slice.make b ~pos:2 ~len:4 in
  checki "length" 4 (Slice.length s);
  check Alcotest.string "contents" "cdef" (slice_string s);
  let t = Slice.sub s ~pos:1 ~len:2 in
  check Alcotest.string "sub" "de" (slice_string t);
  (* Windows alias the backing buffer, in both directions. *)
  Bytes.set b 3 'X';
  check Alcotest.string "aliases parent" "Xe" (slice_string (Slice.sub s ~pos:1 ~len:2));
  Bytes.fill (Slice.buf t) (Slice.pos t) (Slice.length t) 'z';
  check Alcotest.string "mutation visible in backing" "abczzfgh" (Bytes.to_string b);
  let raised = try ignore (Slice.make b ~pos:6 ~len:4); false with Invalid_argument _ -> true in
  checkb "bounds checked" true raised

let test_slice_blits () =
  let b = Bytes.of_string "0123456789" in
  let s = Slice.make b ~pos:2 ~len:6 in
  let dst = Bytes.make 4 '.' in
  Slice.blit_to_bytes s ~src_pos:1 dst ~dst_pos:0 ~len:4;
  check Alcotest.string "blit out" "3456" (Bytes.to_string dst);
  let raised =
    try Slice.blit_to_bytes s ~src_pos:4 dst ~dst_pos:0 ~len:3; false
    with Invalid_argument _ -> true
  in
  checkb "range checked against the view" true raised

(* --- Pool --- *)

module Pool = Msnap_util.Pool

(* Run [f] with pool state of this domain reset around it and the debug
   checks pinned to [debug]. *)
let with_pool ?(debug = false) f =
  Pool.clear ();
  let saved = !Pool.debug_checks in
  Pool.debug_checks := debug;
  Fun.protect
    ~finally:(fun () ->
      Pool.debug_checks := saved;
      Pool.clear ())
    f

let test_pool_reuse_and_stats () =
  with_pool (fun () ->
      let n = 3 * 4096 in
      let a = Pool.alloc n in
      let b = Pool.alloc n in
      checki "sized" n (Bytes.length a);
      Pool.recycle a;
      let c = Pool.alloc n in
      checkb "hit returns the parked buffer" true (c == a);
      let st = List.find (fun s -> s.Pool.cs_size = n) (Pool.stats ()) in
      checki "misses" 2 st.Pool.cs_misses;
      checki "hits" 1 st.Pool.cs_hits;
      checki "recycles" 1 st.Pool.cs_recycles;
      checki "outstanding" 2 st.Pool.cs_outstanding;
      checki "retained" 0 st.Pool.cs_retained;
      Pool.recycle b;
      Pool.recycle c;
      let t = Pool.totals () in
      checki "none outstanding" 0 t.Pool.t_outstanding;
      checki "retained bytes" (2 * n) t.Pool.t_retained_bytes)

let test_pool_small_not_pooled () =
  with_pool (fun () ->
      let a = Pool.alloc 64 in
      Pool.recycle a;
      let b = Pool.alloc 64 in
      checkb "small buffers are plain allocations" true (a != b);
      checki "no class created" 0 (List.length (Pool.stats ())))

let test_pool_alloc_zeroed () =
  with_pool (fun () ->
      let all_zero b = Bytes.for_all (fun c -> c = '\000') b in
      let a = Pool.alloc 8192 in
      Bytes.fill a 0 8192 'x';
      Pool.recycle a;
      let b = Pool.alloc_zeroed 8192 in
      checkb "reuses the dirty buffer" true (b == a);
      checkb "zeroed on reuse" true (all_zero b);
      checkb "small zeroed" true (all_zero (Pool.alloc_zeroed 100)))

let test_pool_double_recycle_detected () =
  with_pool ~debug:true (fun () ->
      let b = Pool.alloc 8192 in
      Pool.recycle b;
      checkb "double recycle raises" true
        (match Pool.recycle b with
        | () -> false
        | exception Pool.Violation _ -> true))

let test_pool_foreign_recycle_detected () =
  with_pool ~debug:true (fun () ->
      checkb "heap buffer refused" true
        (match Pool.recycle (Bytes.create Pool.min_pooled) with
        | () -> false
        | exception Pool.Violation _ -> true);
      let b = Pool.alloc Pool.min_pooled in
      Pool.recycle b;
      checkb "slab buffer accepted" true (Pool.alloc Pool.min_pooled == b);
      Pool.recycle b)

let test_pool_use_after_recycle_detected () =
  with_pool ~debug:true (fun () ->
      let b = Pool.alloc 8192 in
      Pool.recycle b;
      (* A stale holder writes through the parked buffer... *)
      Bytes.set b 4097 '!';
      (* ...and the next alloc of that class catches the torn poison. *)
      checkb "use-after-recycle raises at realloc" true
        (match Pool.alloc 8192 with
        | _ -> false
        | exception Pool.Violation _ -> true))

(* Differential property: a program that funnels its buffers through the
   pool sees exactly the bytes a fresh-allocation version sees, live
   buffers never alias, and the debug poison never leaks into allocated
   buffers — across random alloc/recycle interleavings, both with and
   without the checks enabled. *)
let prop_pool_differential =
  let open QCheck in
  let sizes = [| 4096; 8192; 512; 3 * 4096 |] in
  let gen =
    Gen.(
      pair bool
        (list_size (int_range 1 80) (pair (int_range 0 3) (int_range 0 255))))
  in
  QCheck.Test.make ~count:200
    ~name:"pooled buffers are indistinguishable from fresh allocations"
    (make gen)
    (fun (debug, ops) ->
      with_pool ~debug (fun () ->
          (* Each live entry pairs a pooled buffer with a fresh-alloc
             model holding the same expected contents. *)
          let live = ref [] in
          let ok = ref true in
          List.iter
            (fun (si, x) ->
              if x land 1 = 0 || !live = [] then begin
                let n = sizes.(si) in
                let b = if x land 2 = 0 then Pool.alloc n else Pool.alloc_zeroed n in
                if x land 2 <> 0 then
                  ok := !ok && Bytes.for_all (fun c -> c = '\000') b;
                (* Live buffers must never alias each other. *)
                List.iter (fun (b', _) -> ok := !ok && b != b') !live;
                let fill = Char.chr x in
                Bytes.fill b 0 n fill;
                live := (b, Bytes.make n fill) :: !live
              end
              else begin
                match !live with
                | (b, model) :: rest ->
                  ok := !ok && Bytes.equal b model;
                  live := rest;
                  Pool.recycle b
                | [] -> ()
              end)
            ops;
          List.iter (fun (b, model) -> ok := !ok && Bytes.equal b model) !live;
          List.iter (fun (b, _) -> Pool.recycle b) !live;
          !ok && (Pool.totals ()).Pool.t_outstanding = 0))

(* Pooled buffers are carved from slabs outside the OCaml heap, with a
   header and padding byte written the way [Bytes.create] writes them:
   the length is exact whether the size is word-aligned or not, and a
   buffer larger than a slab gets a mapping of its own. *)
let test_pool_slab_lengths () =
  with_pool (fun () ->
      List.iter
        (fun n ->
          let b = Pool.alloc n in
          checki (Printf.sprintf "length %d" n) n (Bytes.length b);
          for i = 0 to n - 1 do
            Bytes.unsafe_set b i (Char.chr ((i * 7 + n) land 0xff))
          done;
          let model = Bytes.init n (fun i -> Char.chr ((i * 7 + n) land 0xff)) in
          checkb (Printf.sprintf "contents %d" n) true (Bytes.equal b model);
          checkb (Printf.sprintf "copy %d" n) true
            (Bytes.to_string b = Bytes.to_string model);
          checkb (Printf.sprintf "last byte %d" n) true
            (Bytes.get b (n - 1) = Bytes.get model (n - 1));
          checkb "get past the end raises" true
            (match Bytes.get b n with
            | _ -> false
            | exception Invalid_argument _ -> true);
          Pool.recycle b;
          let z = Pool.alloc_zeroed n in
          checkb (Printf.sprintf "hit %d" n) true (z == b);
          checki (Printf.sprintf "length after reuse %d" n) n (Bytes.length z);
          checkb (Printf.sprintf "zeroed %d" n) true
            (Bytes.for_all (fun c -> c = '\000') z);
          Pool.recycle z)
        [ 4096; 4097; 8191; (3 * 4096) + 5; (2 * 1024 * 1024) + 1 ])

(* The GC never marks, sweeps or moves slab buffers, yet the heap holds
   references to them (free lists, callers): full collections and a
   compaction between operations leave every buffer, live or parked,
   intact. *)
let test_pool_survives_gc () =
  with_pool ~debug:true (fun () ->
      let sizes = [| 4096; 8192; 4097 |] in
      let live =
        Array.init 48 (fun i ->
            let n = sizes.(i mod 3) in
            let b = Pool.alloc n in
            Bytes.fill b 0 n (Char.chr (i land 0xff));
            b)
      in
      let intact () =
        Array.for_all Fun.id
          (Array.mapi
             (fun i b ->
               Bytes.length b = sizes.(i mod 3)
               && Bytes.for_all (fun c -> c = Char.chr (i land 0xff)) b)
             live)
      in
      Gc.full_major ();
      checkb "live buffers survive a full major" true (intact ());
      (* Park every other buffer, collect, then take them back. *)
      Array.iteri (fun i b -> if i mod 2 = 0 then Pool.recycle b) live;
      Gc.compact ();
      Gc.full_major ();
      let again =
        Array.init 24 (fun j -> Pool.alloc sizes.((2 * j) mod 3))
      in
      Array.iter (fun b -> checkb "parked poison intact" true
                     (Bytes.for_all (fun c -> c = '\xa5') b)) again;
      checkb "every parked buffer came back" true
        (List.for_all
           (fun b -> Array.exists (fun a -> a == b) again)
           (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list live)));
      Gc.compact ();
      checkb "odd buffers still intact" true
        (Array.for_all Fun.id
           (Array.mapi
              (fun i b ->
                i mod 2 = 0
                || Bytes.for_all (fun c -> c = Char.chr (i land 0xff)) b)
              live));
      Array.iteri (fun i b -> if i mod 2 = 1 then Pool.recycle b) live;
      Array.iter Pool.recycle again;
      checki "none outstanding" 0 (Pool.totals ()).Pool.t_outstanding)

(* Each domain carves from its own slabs with its own cursors: two
   domains allocating and recycling at once never hand out overlapping
   memory. Both first carve well over a slab of buffers and a slab and a
   half of chunks at the same time, then alloc and recycle at random;
   every live buffer and chunk carries its owner's stamp, re-verified as
   they go and at the end. *)
let pool_two_domains debug () =
  let saved = !Pool.debug_checks in
  Pool.debug_checks := debug;
  Fun.protect
    ~finally:(fun () -> Pool.debug_checks := saved)
    (fun () ->
      let work d () =
        let rng = Random.State.make [| d |] in
        let sizes = [| 4096; 4097; 8192; (3 * 4096) + 5 |] in
        let mark k = Char.chr ((d * 64) + (k land 63)) in
        let ok = ref true in
        let fresh k =
          let b = Pool.alloc sizes.(Random.State.int rng 4) in
          Bytes.fill b 0 (Bytes.length b) (mark k);
          (b, k)
        in
        let verify live =
          List.iter
            (fun (b, k) -> ok := !ok && Bytes.for_all (fun c -> c = mark k) b)
            live
        in
        let chunks =
          Array.init 12 (fun k ->
              let c = Pool.alloc_chunk (256 * 1024) in
              Bigarray.Array1.fill c (mark k);
              c)
        in
        let live = ref (List.init 600 fresh) in
        verify !live;
        for step = 0 to 999 do
          (if Random.State.bool rng then live := fresh step :: !live
           else
             match !live with
             | (b, _) :: rest ->
               Pool.recycle b;
               live := rest
             | [] -> ());
          if step mod 100 = 0 then verify !live
        done;
        verify !live;
        Array.iteri
          (fun k c ->
            for i = 0 to Bigarray.Array1.dim c - 1 do
              if Bigarray.Array1.unsafe_get c i <> mark k then ok := false
            done)
          chunks;
        List.iter (fun (b, _) -> Pool.recycle b) !live;
        !ok && (Pool.totals ()).Pool.t_outstanding = 0
      in
      let ds = List.map (fun d -> Domain.spawn (work d)) [ 1; 2 ] in
      List.iter
        (fun d -> checkb "no aliasing across domains" true (Domain.join d))
        ds)

let test_pool_alloc_chunk_sizes () =
  let c = Pool.alloc_chunk 64 in
  checki "smallest chunk" 64 (Bigarray.Array1.dim c);
  let c = Pool.alloc_chunk (2 * 1024 * 1024) in
  checki "whole-slab chunk" (2 * 1024 * 1024) (Bigarray.Array1.dim c);
  List.iter
    (fun n ->
      checkb (Printf.sprintf "alloc_chunk %d rejected" n) true
        (match Pool.alloc_chunk n with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -64; 100; (2 * 1024 * 1024) + 64; max_int ]

(* --- Taskpool --- *)

module Taskpool = Msnap_util.Taskpool

(* With zero workers nothing runs until [await]; then each task runs
   inline, in program order — serial execution is the degenerate case,
   not a separate code path. *)
let test_tp_inline_serial () =
  Taskpool.shutdown ();
  let order = ref [] in
  let ts =
    List.init 5 (fun i ->
        Taskpool.submit (fun () ->
            order := i :: !order;
            i * i))
  in
  checki "nothing ran before await" 0 (List.length !order);
  let rs = List.map Taskpool.await ts in
  check Alcotest.(list int) "results" [ 0; 1; 4; 9; 16 ] rs;
  check
    Alcotest.(list int)
    "inline execution order = program order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

exception Boom of int

let test_tp_exception () =
  Fun.protect ~finally:Taskpool.shutdown (fun () ->
      Taskpool.ensure_workers 2;
      checkb "worker_count grew" true (Taskpool.worker_count () >= 2);
      let bad = Taskpool.submit (fun () -> raise (Boom 7)) in
      let good = Taskpool.submit (fun () -> 41 + 1) in
      (match Taskpool.await bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ()
      | exception e -> raise e);
      checki "other tasks unaffected" 42 (Taskpool.await good);
      (* The pool stays usable after a task raised. *)
      checki "pool survives" 5 (Taskpool.await (Taskpool.submit (fun () -> 5))))

(* Fork/join nesting: Heavy tasks submit and await Light subtasks — the
   shape the bench runner uses (experiments awaiting their cells while
   helping run other queued cells). *)
let test_tp_nested () =
  Fun.protect ~finally:Taskpool.shutdown (fun () ->
      Taskpool.ensure_workers 2;
      let outer =
        List.init 4 (fun i ->
            Taskpool.submit ~cls:Taskpool.Heavy (fun () ->
                let subs =
                  List.init 5 (fun j ->
                      Taskpool.submit (fun () -> (i * 10) + j))
                in
                List.fold_left (fun a t -> a + Taskpool.await t) 0 subs))
      in
      List.iteri
        (fun i t ->
          checki "nested fork/join sum" ((5 * (i * 10)) + 10)
            (Taskpool.await t))
        outer)

(* Model property: for any worker count and task list, awaiting in
   submission order yields exactly the submitted computations' results
   (none lost, duplicated, or reordered) and every body ran exactly
   once — whether tasks ran inline, on a worker, or were stolen. *)
let prop_tp_model =
  let open QCheck in
  let gen =
    Gen.(pair (int_range 0 3) (list_size (int_range 0 40) small_int))
  in
  let chew x =
    let h = ref x in
    for i = 1 to 50 do
      h := (!h * 31) + i
    done;
    !h
  in
  QCheck.Test.make ~count:25
    ~name:"taskpool delivers every result in submission order" (make gen)
    (fun (workers, xs) ->
      Fun.protect ~finally:Taskpool.shutdown (fun () ->
          Taskpool.ensure_workers workers;
          let ran = Atomic.make 0 in
          let ts =
            List.map
              (fun x ->
                Taskpool.submit (fun () ->
                    Atomic.incr ran;
                    (x, chew x)))
              xs
          in
          let rs = List.map Taskpool.await ts in
          rs = List.map (fun x -> (x, chew x)) xs
          && Atomic.get ran = List.length xs))

(* --- Minheap (vs the reference heap) --- *)

module Minheap = Msnap_util.Minheap

(* Equal priorities pop in push order, including across an interleaved
   pop between the pushes. *)
let test_minheap_fifo_ties () =
  let h = Minheap.create ~initial:2 () in
  Minheap.push h ~prio:10 "a";
  Minheap.push h ~prio:10 "b";
  Minheap.push h ~prio:5 "x";
  check Alcotest.string "lowest first" "x" (Minheap.pop_min h);
  Minheap.push h ~prio:10 "c";
  Minheap.push h ~prio:7 "y";
  check Alcotest.string "y" "y" (Minheap.pop_min h);
  check Alcotest.string "a" "a" (Minheap.pop_min h);
  check Alcotest.string "b" "b" (Minheap.pop_min h);
  check Alcotest.string "c" "c" (Minheap.pop_min h);
  checkb "empty" true (Minheap.is_empty h);
  checki "empty min" (-1) (Minheap.min_prio h)

(* The queue is monotone: a push below the last popped priority, or
   below zero, is refused and leaves the heap as it was; popping an
   empty heap is refused too. *)
let test_minheap_monotone () =
  let h = Minheap.create () in
  let refused f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "negative prio refused" true
    (refused (fun () -> Minheap.push h ~prio:(-1) 0));
  Minheap.push h ~prio:10 1;
  Minheap.push h ~prio:20 2;
  checki "pop" 1 (Minheap.pop_min h);
  checkb "below the last pop refused" true
    (refused (fun () -> Minheap.push h ~prio:9 3));
  Minheap.push h ~prio:10 4;
  checki "length" 2 (Minheap.length h);
  checki "equal to the last pop accepted" 4 (Minheap.pop_min h);
  checki "then the rest" 2 (Minheap.pop_min h);
  checkb "empty pop refused" true
    (refused (fun () -> ignore (Minheap.pop_min h)))

(* Differential property: drive the heap and the reference heap with an
   identical monotone op sequence — pushes at now + delta (frequent
   delta 0 bursts for the equal-priority tie-break, nearby deltas, and
   far-apart priorities up to 2^40 ahead), pops that advance "now" —
   and require the same value pop for pop and the same min_prio at
   every step. The heap's internal (prio, seq) order audit is armed
   throughout. *)
let prop_minheap_differential =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (3, pair (return 0) (return 0)); (* pop *)
          (3, pair (return 1) (return 0)); (* push, same prio as "now" *)
          (4, pair (return 2) (int_range 0 200)); (* push, nearby *)
          (1, pair (return 3) (int_range 0 40)); (* push, far: 2^delta *)
        ])
  in
  QCheck.Test.make ~count:500
    ~name:"minheap matches the reference heap pop for pop"
    (make Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let saved = !Msnap_util.Slice.debug_checks in
      Msnap_util.Slice.debug_checks := true;
      Fun.protect
        ~finally:(fun () -> Msnap_util.Slice.debug_checks := saved)
        (fun () ->
          let h = Minheap.create ~initial:2 () in
          let pq = Pq.create () in
          let now = ref 0 in
          let next = ref 0 in
          let mins_agree () =
            Minheap.min_prio h
            = (match Pq.min_prio pq with Some p -> p | None -> -1)
          in
          let step (kind, delta) =
            if kind = 0 then
              if Pq.is_empty pq then Minheap.is_empty h
              else begin
                now := Minheap.min_prio h;
                let v = Minheap.pop_min h in
                Some v = Pq.pop pq && mins_agree ()
              end
            else begin
              let prio = !now + (if kind = 3 then 1 lsl delta else delta) in
              let v = !next in
              incr next;
              Minheap.push h ~prio v;
              Pq.push pq ~prio v;
              mins_agree ()
            end
          in
          List.for_all step ops
          &&
          (* drain: every remaining entry in identical order *)
          let rec drain () =
            if Pq.is_empty pq then Minheap.is_empty h
            else
              Some (Minheap.pop_min h) = Pq.pop pq
              && mins_agree () && drain ()
          in
          drain ()))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "seed matters" test_rng_seed_matters;
          tc "int bounds" test_rng_int_bounds;
          tc "int_in bounds" test_rng_int_in;
          tc "float range" test_rng_float_range;
          tc "split independent" test_rng_split_independent;
          tc "uniformity" test_rng_uniformity;
          tc "shuffle permutes" test_rng_shuffle_permutes;
          tc "bytes length" test_rng_bytes_len;
          tc "int draws allocation-free" test_rng_alloc_free;
          tc "bool draws allocation-free" test_rng_bool_alloc_free;
          tc "float draws allocation-free" test_rng_float_alloc_free;
          QCheck_alcotest.to_alcotest prop_rng_differential;
        ] );
      ( "wire",
        [
          tc "checksum long/chained" test_checksum_long;
          tc "checksum allocation-free" test_checksum_alloc_free;
          tc "checksum golden values" test_checksum_golden;
          QCheck_alcotest.to_alcotest prop_checksum_differential;
          QCheck_alcotest.to_alcotest prop_checksum_torn;
          QCheck_alcotest.to_alcotest prop_checksum_bit_flips;
          QCheck_alcotest.to_alcotest prop_checksum_sector_swap;
        ] );
      ( "keyfmt",
        [
          tc "table" test_keyfmt_table;
          QCheck_alcotest.to_alcotest prop_keyfmt_differential;
          QCheck_alcotest.to_alcotest prop_keyfmt_negative;
        ] );
      ( "intern",
        [
          tc "memo" test_intern_memo;
          QCheck_alcotest.to_alcotest prop_intern_content_identity;
        ] );
      ( "dist",
        [
          tc "domains" test_dist_domains;
          tc "pareto skew" test_pareto_skew;
        ] );
      ( "histogram",
        [
          tc "exact small" test_hist_exact_small;
          tc "p99" test_hist_p99;
          tc "relative error" test_hist_relative_error;
          tc "empty" test_hist_empty;
          tc "merge" test_hist_merge;
          tc "clear" test_hist_clear;
          tc "negative clamped" test_hist_negative_clamped;
          QCheck_alcotest.to_alcotest prop_hist_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_hist_percentile_bounds;
        ] );
      ( "bits",
        [
          tc "clz" test_bits_clz;
          tc "ceil_log2" test_bits_ceil_log2;
          tc "round" test_bits_round;
          QCheck_alcotest.to_alcotest prop_clz_consistent;
        ] );
      ( "flat",
        [
          tc "itab basics" test_itab_basics;
          tc "itab slots" test_itab_slots;
          tc "itab growth/tombstones" test_itab_growth_and_tombstones;
          tc "itab emptied by removes" test_itab_emptied_by_removes;
          QCheck_alcotest.to_alcotest prop_itab_model;
          tc "iring fifo" test_iring_fifo;
          QCheck_alcotest.to_alcotest prop_iring_model;
          tc "fvec basics" test_fvec_basics;
          tc "fvec swap_remove" test_fvec_swap_remove;
          tc "fvec remove_at" test_fvec_remove_at;
          tc "fvec index_phys" test_fvec_index_phys;
          QCheck_alcotest.to_alcotest prop_fvec_remove_model;
        ] );
      ( "slice",
        [
          tc "windows alias the backing buffer" test_slice_windows;
          tc "blits" test_slice_blits;
        ] );
      ( "pool",
        [
          tc "reuse and stats" test_pool_reuse_and_stats;
          tc "small buffers bypass" test_pool_small_not_pooled;
          tc "alloc_zeroed" test_pool_alloc_zeroed;
          tc "double recycle detected" test_pool_double_recycle_detected;
          tc "foreign recycle detected" test_pool_foreign_recycle_detected;
          tc "use-after-recycle detected" test_pool_use_after_recycle_detected;
          QCheck_alcotest.to_alcotest prop_pool_differential;
          tc "slab buffer lengths" test_pool_slab_lengths;
          tc "slab buffers survive GC" test_pool_survives_gc;
          tc "two domains (debug off)" (pool_two_domains false);
          tc "two domains (debug on)" (pool_two_domains true);
          tc "alloc_chunk sizes" test_pool_alloc_chunk_sizes;
        ] );
      ( "taskpool",
        [
          tc "zero workers run inline at await" test_tp_inline_serial;
          tc "exception propagation" test_tp_exception;
          tc "fork/join nesting" test_tp_nested;
          QCheck_alcotest.to_alcotest prop_tp_model;
        ] );
      ( "minheap",
        [
          tc "equal-priority FIFO across interleaved pops"
            test_minheap_fifo_ties;
          tc "push below the last pop is refused" test_minheap_monotone;
          QCheck_alcotest.to_alcotest prop_minheap_differential;
        ] );
      ( "tbl",
        [
          tc "render" test_tbl_render;
          tc "fmt helpers" test_fmt_helpers;
          tc "size" test_size;
        ] );
    ]
