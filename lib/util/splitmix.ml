(* splitmix64 on native Int64. [mix] and [next] are inlined into every
   entry point below, where ocamlopt keeps their int64 intermediates
   unboxed in registers. A function that returned an int64 to another
   module would box it under the dev profile's -opaque, so the entry
   points return tagged ints and keep state in Bytes. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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
