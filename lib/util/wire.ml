(* Little-endian field codecs plus a 64-bit content checksum for the
   on-media record formats (FFS journal, sqlite WAL frames, pg WAL
   records, metadata snapshots). Host-only helpers: encoding and
   decoding never touch the scheduler. *)

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off v
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* 62-bit non-negative payloads (sizes, sequence numbers): the sign bit
   and OCaml's tag bit are never needed on media. *)
let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off) land max_int
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

(* The kernel is C (wire_stubs.c): eight multiply-accumulate lanes over
   64-byte stripes, folded with splitmix64's mix. Every journaled byte
   passes through it (about 0.7 us per 4 KiB in L1, no allocation). It
   checks nothing, so both entry points bounds-check first. The media
   format is pinned by the Int64 differential and the golden values in
   test_util.ml. *)
external kernel :
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "msnap_wire_checksum_byte" "msnap_wire_checksum"
[@@noalloc]

(* [init] chains checksums: each WAL frame mixes in its predecessor's.
   A required label, not an optional one: under the dev profile's
   -opaque an [?init] argument would box a [Some] on every call. *)
let chain ~init b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Wire.checksum";
  kernel b pos len init

let checksum b ~pos ~len = chain ~init:0x5DEECE66D b ~pos ~len
