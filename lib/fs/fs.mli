(** Baseline file systems: FFS-like (journaling, in-place) and ZFS-like
    (copy-on-write).

    This is the file API the paper compares MemSnap against (Tables 6-8,
    Fig. 4-6): buffered [write]/[read] through a bounded buffer cache,
    [fsync] with the cost structure of each design, and [mmap]/[msync] for
    the PostgreSQL variants. The performance-relevant mechanics are modelled
    honestly rather than charged as constants:

    - the cache works in file-system blocks (FFS 32 KiB, ZFS 128 KiB
      records), so sub-block writes to uncached blocks pay a
      read-modify-write — the dominant cost of random IO on both systems;
    - FFS [fsync] journals, then writes dirty blocks in place with the
      limited concurrency soft-updates dependency ordering allows, then
      updates metadata;
    - ZFS [fsync] allocates fresh blocks (COW), writes data sequentially,
      then per-record indirect blocks and an uberblock;
    - both scan the file's resident cache pages first, which is why
      baseline fsync slows down as a database file grows (Fig. 5).

    Durability model: data blocks genuinely persist to the device at
    [fsync]; the volatile inode table persists on [sync_meta] (called by
    unmount). FFS additionally journals real commit records (one per
    fsync transaction) and writes parseable metadata snapshots, so an
    FFS image can be {!mount}ed after a crash: the newest snapshot plus
    the committed journal suffix reconstruct every acknowledged
    transaction's metadata. Data-block contents follow the
    metadata-journaling model — in-place rewrites of existing blocks are
    only crash-consistent for append-style workloads (the crash matrix
    exercises exactly those). ZFS remains recovery-free. *)

type t
type file

type kind = Ffs | Zfs

val mkfs : Msnap_blockdev.Device.t -> kind:kind -> t
(** Format a file system over any block device (see
    {!Msnap_blockdev.Device}); wrap a raw backend with [Device.of_disk]
    or [Device.of_stripe]. *)

exception Mount_error of string
(** Acked transactions cannot be reconstructed (journal seq gap past an
    un-snapshotted commit, or an overflowed commit record). *)

val mount : Msnap_blockdev.Device.t -> kind:kind -> t
(** Recover an FFS image after a crash: newest intact metadata snapshot
    plus replay of every younger committed journal transaction. A blank
    device mounts as an empty file system; inconsistent media raises
    {!Mount_error}. [kind] must be [Ffs]. *)

val kind : t -> kind
val fs_block_size : t -> int

val open_file : t -> string -> file
(** Open, creating if absent. *)

val exists : t -> string -> bool
val remove : t -> string -> unit

val writev : t -> file -> off:int -> Msnap_util.Slice.t list -> unit
(** The buffered write path (syscall + cache copy; RMW read if needed):
    writes the slices' concatenation at [off] with one syscall charge and
    one cache copy of the combined payload, whatever the split. Every
    buffered write goes through it; a part of a buffer is written as
    [writev t f ~off [ Slice.make buf ~pos ~len ]]. The slices are
    consumed before the call returns (the page cache owns the bytes
    afterwards), so no ownership obligation outlives the call. *)

val write : t -> file -> off:int -> Bytes.t -> unit
(** [writev] of one slice over all of [data]. *)

val read : t -> file -> off:int -> len:int -> Bytes.t
(** Zero-fills holes, like read(2) past sparse regions. *)

val read_into : t -> file -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [read] into [buf[pos..pos+len)] — identical charges, no output
    allocation. Holes are zero-filled; other bytes of [buf] are
    untouched. *)

val fsync : t -> file -> unit

val truncate : t -> file -> int -> unit
val size : t -> file -> int

val resident_blocks : t -> file -> int
(** Cache-resident fs-blocks of this file. *)

val set_cache_capacity : t -> int -> unit

(** {2 Memory mapping} *)

val mmap :
  t -> file -> Msnap_vm.Aspace.t -> va:int -> len:int -> Msnap_vm.Aspace.mapping
(** Map the file at [va]. Stores fault pages in from the cache/device; a
    write fault marks the backing fs-block dirty. *)

val msync : t -> file -> unit
(** Gather dirty mapped pages back into the cache and [fsync]. *)

val sync_meta : t -> unit
(** Persist the inode table (unmount-time metadata flush). *)

val dispose : t -> unit
(** End-of-run teardown: return every cache block's buffer to
    [Msnap_util.Pool]. The file system must never be used again. *)

(** {2 Statistics} *)

val rmw_reads : t -> int
(** Read-modify-write block reads triggered by sub-block writes. *)

(**/**)

val meta_text_length : t -> int
(** The IO size {!sync_meta} charges for before its cap: the length of
    the inode table's legacy text form (per file: name, size, then
    ["idx:first"] per block mapping), computed from digit counts. *)

val debug_blocks : t -> file -> (int * int) list
(** The file's (fs-block idx, first device block) mappings, for tests. *)
