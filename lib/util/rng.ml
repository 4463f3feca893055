(* splitmix64 draws from the native kernel in {!Splitmix}: the state is
   its 8-byte [Splitmix.state] and every draw arrives as a tagged int, so
   a draw allocates nothing even where -opaque stops inlining across
   modules. Sequences are simulated values, pinned bit for bit by the
   Int64 differential in test_util.ml. *)

type t = Splitmix.state

let create = Splitmix.create
let split = Splitmix.split
let bits64 = Splitmix.next64

let int t bound =
  assert (bound > 0);
  Splitmix.next62 t mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* The high 53 bits, exact in both int and float. *)
let float t = float_of_int (Splitmix.next53 t) *. 0x1p-53
let bool t = Splitmix.next62 t land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let fill t b ~pos ~len =
  for i = pos to pos + len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done

let bytes t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  b

let string t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  Bytes.unsafe_to_string b
