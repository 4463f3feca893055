(** The four storage/persistence designs of Fig. 6, behind one interface.

    Every heap access flows through {!read_into}/{!write} at (relation, block,
    offset) granularity; {!commit} is the transaction durability point and
    {!checkpoint_tick} drives background flushing. The variants:

    - [ffs]: classic PostgreSQL — shared buffers over file IO, WAL with
      full-page writes fsynced at commit, periodic checkpoints that flush
      dirty buffers.
    - [ffs_mmap]: table files are memory-mapped; reads come from the
      mapping, writes still copy through the shared buffers and WAL.
    - [ffs_mmap_bufdirect]: reads *and* writes go directly to the mapping
      (no buffer copies); the WAL remains; checkpoints msync the files.
    - [memsnap]: relations are MemSnap regions accessed in place; commit
      is one [msnap_persist]; there is no WAL and no checkpointer.

    WAL traffic is recorded under Metrics ["write"]/["fsync"], persists
    under ["memsnap"], checkpoints under ["pg_checkpoint"]. *)

type t

val label : t -> string

val ffs :
  Msnap_fs.Fs.t -> ?wal_checkpoint_bytes:int -> unit -> t

val ffs_mmap :
  Msnap_fs.Fs.t -> Msnap_vm.Aspace.t -> ?wal_checkpoint_bytes:int -> unit -> t

val ffs_mmap_bufdirect :
  Msnap_fs.Fs.t -> Msnap_vm.Aspace.t -> ?wal_checkpoint_bytes:int -> unit -> t

val memsnap : Msnap_core.Msnap.t -> t

(** Copy [len] bytes at offset [off] of block [blockno] of [rel] into
    the buffer at [pos]. *)
val read_into :
  t -> rel:string -> blockno:int -> off:int -> Bytes.t -> pos:int -> len:int ->
  unit
val write : t -> rel:string -> blockno:int -> off:int -> Bytes.t -> unit

val commit : t -> unit
(** Durability point of the calling transaction. *)

val checkpoint_tick : t -> unit
(** Called after commits; runs a checkpoint when the WAL threshold is
    reached (no-op for memsnap). *)

val rel_block_limit : int
(** Maximum blocks per relation (fixed mapping size for the direct
    variants). *)

(**/**)

(** Redo hooks — the {!Redo} driver's interface to the WAL format. *)

type wal_record = {
  r_rel : string;
  r_blockno : int;
  r_off : int;
  r_delta : Bytes.t;
  r_image : Bytes.t option;
  r_end : int;
  r_cksum : int;
}

exception Redo_unsupported of string

val wal_file_name : string
val wal_cksum_seed : int

val wal_read_record :
  Msnap_fs.Fs.t -> Msnap_fs.Fs.file -> off:int -> cksum:int ->
  wal_record option

val redo_apply : t -> rel:string -> blockno:int -> off:int -> Bytes.t -> unit
val redo_restore_wal : t -> off:int -> cksum:int -> unit
