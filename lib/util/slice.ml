type t = { s_buf : Bytes.t; s_pos : int; s_len : int }

let make buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Slice.make: pos=%d len=%d over %d bytes" pos len
         (Bytes.length buf));
  { s_buf = buf; s_pos = pos; s_len = len }

let of_bytes b = { s_buf = b; s_pos = 0; s_len = Bytes.length b }

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.s_len then
    invalid_arg
      (Printf.sprintf "Slice.sub: pos=%d len=%d over slice of %d" pos len t.s_len);
  { s_buf = t.s_buf; s_pos = t.s_pos + pos; s_len = len }

let buf t = t.s_buf
let pos t = t.s_pos
let length t = t.s_len

let blit_to_bytes t ~src_pos dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > t.s_len then
    invalid_arg "Slice.blit_to_bytes: bad range";
  Bytes.blit t.s_buf (t.s_pos + src_pos) dst dst_pos len

let debug_checks = ref false

(* Only run under [debug_checks]; host-only, never feeds simulated
   state. *)
let checksum t = Wire.checksum t.s_buf ~pos:t.s_pos ~len:t.s_len
