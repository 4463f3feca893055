type t = { s_buf : Bytes.t; s_pos : int; s_len : int; mutable s_borrows : int }

exception Borrowed of string

let make buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Slice.make: pos=%d len=%d over %d bytes" pos len
         (Bytes.length buf));
  { s_buf = buf; s_pos = pos; s_len = len; s_borrows = 0 }

let of_bytes b = { s_buf = b; s_pos = 0; s_len = Bytes.length b; s_borrows = 0 }

(* Safe because every consumer treats slices as read-only sources unless
   it goes through the checked mutation API below, which refuses to touch
   a string-backed slice when checks are on. *)
let of_string s = of_bytes (Bytes.unsafe_of_string s)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.s_len then
    invalid_arg
      (Printf.sprintf "Slice.sub: pos=%d len=%d over slice of %d" pos len t.s_len);
  { s_buf = t.s_buf; s_pos = t.s_pos + pos; s_len = len; s_borrows = 0 }

let buf t = t.s_buf
let pos t = t.s_pos
let length t = t.s_len

let to_string t = Bytes.sub_string t.s_buf t.s_pos t.s_len

let blit_to_bytes t ~src_pos dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > t.s_len then
    invalid_arg "Slice.blit_to_bytes: bad range";
  Bytes.blit t.s_buf (t.s_pos + src_pos) dst dst_pos len

(* --- borrow discipline --- *)

let debug_checks = ref false

let borrow t = t.s_borrows <- t.s_borrows + 1
let release t = if t.s_borrows > 0 then t.s_borrows <- t.s_borrows - 1
let borrows t = t.s_borrows

let check_mutable t op =
  if !debug_checks && t.s_borrows > 0 then
    raise
      (Borrowed
         (Printf.sprintf
            "Slice.%s: slice is lent to %d in-flight command(s); the \
             ownership rule forbids mutation until they complete"
            op t.s_borrows))

let blit_from_bytes src ~src_pos t ~dst_pos ~len =
  if dst_pos < 0 || len < 0 || dst_pos + len > t.s_len then
    invalid_arg "Slice.blit_from_bytes: bad range";
  check_mutable t "blit_from_bytes";
  Bytes.blit src src_pos t.s_buf (t.s_pos + dst_pos) len

let fill t c =
  check_mutable t "fill";
  Bytes.fill t.s_buf t.s_pos t.s_len c

(* Only run under [debug_checks]; host-only, never feeds simulated
   state. *)
let checksum t = Wire.checksum t.s_buf ~pos:t.s_pos ~len:t.s_len
