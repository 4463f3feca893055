type t = int

let bit_present = 1
let bit_writable = 2
let bit_cow = 4
let bit_accessed = 8

let empty = 0

let present t = t land bit_present <> 0
let writable t = t land bit_writable <> 0
let cow t = t land bit_cow <> 0
let accessed t = t land bit_accessed <> 0

let make ~frame ~writable =
  (frame lsl Addr.page_shift) lor bit_present
  lor (if writable then bit_writable else 0)

let frame t = t lsr Addr.page_shift

let set_bit t bit v = if v then t lor bit else t land lnot bit

let set_writable t v = set_bit t bit_writable v
let set_cow t v = set_bit t bit_cow v

let set_frame t f =
  (f lsl Addr.page_shift) lor (t land (Addr.page_size - 1))

(* Aurora's whole-mapping passes, one leaf window per call, in
   pte_stubs.c. The stubs check nothing, so the window and the scratch
   are checked here, before each call, unconditionally. *)

external stub_shadow_leaf : int array -> int -> int -> int array -> int
  = "msnap_pte_shadow_leaf"
[@@noalloc]

external stub_collapse_leaf : int array -> int -> int -> int
  = "msnap_pte_collapse_leaf"
[@@noalloc]

let check_window fn slots s0 s1 =
  if s0 < 0 || s0 > s1 || s1 >= Array.length slots then
    invalid_arg ("Pte." ^ fn ^ ": window out of bounds")

let shadow_leaf slots ~s0 ~s1 ~dirty =
  check_window "shadow_leaf" slots s0 s1;
  if Array.length dirty <= s1 - s0 then
    invalid_arg "Pte.shadow_leaf: dirty scratch shorter than the window";
  stub_shadow_leaf slots s0 s1 dirty

let collapse_leaf slots ~s0 ~s1 =
  check_window "collapse_leaf" slots s0 s1;
  stub_collapse_leaf slots s0 s1

let leaf_present r = r land 0xFFFF_FFFF
let leaf_dirty r = r lsr 32
