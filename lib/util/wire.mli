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

val checksum : ?init:int -> Bytes.t -> pos:int -> len:int -> int
(** Deterministic four-lane splitmix64 fold over [b[pos..pos+len)]
    ({!Splitmix.fold}), returned as a non-negative int. [init] chains
    checksums across records. The one checksum of every on-media
    format. *)
