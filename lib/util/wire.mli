(** Little-endian field codecs and a 64-bit content checksum for
    on-media record formats (journal records, WAL frames, metadata
    snapshots). Host-only. *)

val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit

val get_u64 : Bytes.t -> int -> int
val set_u64 : Bytes.t -> int -> int -> unit
(** 62-bit non-negative payloads (sizes, sequence numbers). *)

val checksum : Bytes.t -> pos:int -> len:int -> int
(** The 62-bit content checksum of [b[pos..pos+len)], a non-negative
    int: eight multiply-accumulate lanes over 64-byte stripes, folded
    with splitmix64's mix (DESIGN §12). The one checksum of every
    on-media format. Allocates nothing; raises [Invalid_argument] if the
    range is outside [b]. *)

val chain : init:int -> Bytes.t -> pos:int -> len:int -> int
(** [chain ~init] is {!checksum} started from [init] instead of the
    default seed, so a record's sum can cover its predecessor's:
    [checksum b = chain ~init:0x5DEECE66D b]. Allocates nothing. *)
