(* splitmix64 on native Int64. [mix] and [next] are inlined into every
   entry point below, where ocamlopt keeps their int64 intermediates
   unboxed in registers. A function that returned an int64 to another
   module would box it under the dev profile's -opaque, so the entry
   points return tagged ints and keep state in Bytes. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

type state = Bytes.t

let create seed =
  let s = Bytes.create 8 in
  set64u s 0 (Int64.of_int seed);
  s

(* state += golden gamma; the draw is the mixed state. *)
let[@inline] next s =
  let z = Int64.add (get64u s 0) 0x9E3779B97F4A7C15L in
  set64u s 0 z;
  mix z

let split s =
  let t = Bytes.create 8 in
  set64u t 0 (next s);
  t

let next64 s = next s
let next62 s = Int64.to_int (next s) land max_int
let next53 s = Int64.to_int (Int64.shift_right_logical (next s) 11)

let[@inline] get64_le b o =
  if Sys.big_endian then bswap64 (get64u b o) else get64u b o

(* Four independent splitmix chains, lane [k] over the words at 8k
   within each 32-byte stride, so their multiplies overlap instead of
   queueing behind one dependent chain. The lanes start apart by the
   golden gamma and fold into one hash through [mix], lane 0 first; the
   remaining whole words, the tail bytes and [len] follow one mix each.
   Every lane is a local ref that never escapes, so ocamlopt keeps all
   four unboxed in registers. *)
let fold ~init b ~pos ~len =
  let seed = mix (Int64.of_int init) in
  let stripes = len / 32 in
  let h = ref seed in
  if stripes > 0 then begin
    let l0 = ref seed in
    let l1 = ref (Int64.add seed 0x9E3779B97F4A7C15L) in
    let l2 = ref (Int64.add seed 0x3C6EF372FE94F82AL) in
    let l3 = ref (Int64.add seed 0xDAA66D2C7DDF743FL) in
    for i = 0 to stripes - 1 do
      let o = pos + (i * 32) in
      l0 := mix (Int64.add !l0 (get64_le b o));
      l1 := mix (Int64.add !l1 (get64_le b (o + 8)));
      l2 := mix (Int64.add !l2 (get64_le b (o + 16)));
      l3 := mix (Int64.add !l3 (get64_le b (o + 24)))
    done;
    h := mix (Int64.add !h !l0);
    h := mix (Int64.add !h !l1);
    h := mix (Int64.add !h !l2);
    h := mix (Int64.add !h !l3)
  end;
  let full = len / 8 in
  for i = stripes * 4 to full - 1 do
    h := mix (Int64.add !h (get64_le b (pos + (i * 8))))
  done;
  if len mod 8 <> 0 then begin
    (* The tail, first byte most significant; < 2^56. *)
    let word = ref 0 in
    for i = pos + (full * 8) to pos + len - 1 do
      word := (!word lsl 8) lor Char.code (Bytes.unsafe_get b i)
    done;
    h := mix (Int64.add !h (Int64.of_int !word))
  end;
  Int64.to_int (mix (Int64.add !h (Int64.of_int len))) land max_int
