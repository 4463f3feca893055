(** PostgreSQL-style shared buffer manager: 8 KiB buffers, clock-sweep
    eviction, over a storage-manager (smgr) pair of read/write callbacks.

    Used by the baseline file variant; the mmap/bufdirect/MemSnap variants
    of §7.3 bypass it entirely (see {!Storage}), which is exactly the
    simplification the paper credits MemSnap with. *)

val block_size : int (* 8192 *)

type smgr = {
  s_read : rel:string -> blockno:int -> Bytes.t;
      (** Fetch an 8 KiB block (zero block if never written). *)
  s_write : rel:string -> blockno:int -> Bytes.t -> unit;
      (** Write back one block (checkpoint/eviction path). *)
  s_flush : rel:string -> unit;  (** fsync one relation. *)
}

type t

val create : ?nbuffers:int -> smgr -> t
(** [nbuffers] defaults to 2048 (16 MiB of shared buffers). *)

val read_buffer : t -> rel:string -> blockno:int -> Bytes.t
(** Return the buffer for a block, faulting it in and evicting (with
    write-back of dirty victims) as needed. *)

val mark_dirty : t -> rel:string -> blockno:int -> unit

val flush_all : t -> unit

val dirty_count : t -> int
val resident : t -> int
