(** On-disk layout constants and record serialization for the object store.

    The volume is an array of 4 KiB blocks:
    - blocks 0 and 1 hold the two alternating superblock copies;
    - everything above {!first_data_block} is allocatable.

    Commit records (superblocks and object headers) fit in one 512-byte
    sector and carry a {!Msnap_util.Wire.checksum} of the rest of the
    sector in their last 8 bytes, so writing one is atomic under the disk's
    sector-atomicity guarantee — this is the entire crash-consistency story
    of the store: data and COW tree nodes land in free space first, then a
    single sector flips the object to its new epoch. *)

val block_size : int (* 4096 *)
val sb_blocks : int (* 2 *)
val first_data_block : int
val radix_fanout : int (* 512 *)

type superblock = {
  generation : int;
  directory_block : int;  (** 0 = empty store *)
  total_blocks : int;
}

val superblock_to_bytes : superblock -> Bytes.t
(** One sector, checksummed. *)

val superblock_of_bytes : Bytes.t -> superblock option
(** [None] if the magic or checksum is wrong. *)

type header = {
  obj_id : int;
  obj_name : string;
  epoch : int;
  root_block : int;  (** 0 = empty object *)
  height : int;
  size_bytes : int;
  meta : int;
      (** Opaque user metadata persisted with the object; MemSnap stores
          the region's fixed mapping address here so recovery can remap it
          at the same virtual address. *)
}

val header_to_bytes : header -> Bytes.t
val header_of_bytes : Bytes.t -> header option

val directory_to_bytes : (string * int) list -> Bytes.t
(** [(name, header_block)] entries serialized into one block. *)

val directory_of_bytes : Bytes.t -> (string * int) list

val max_directory_entries : int
