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

(* A splitmix64 fold over the bytes, one mix per 8-byte word, returned
   as a non-negative int so it round-trips through {!set_u64}. [init]
   chains checksums: each WAL frame mixes in its predecessor's. Every
   journaled byte passes through here, so the fold is the native
   {!Splitmix} kernel and allocates nothing. The media format is pinned
   by the Int64 differential in test_util.ml. *)
let checksum ?(init = 0x5DEECE66D) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Wire.checksum";
  Splitmix.fold ~init b ~pos ~len
