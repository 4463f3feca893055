(** The two-level LSM tree of the baseline RocksDB.

    MemTable flushes produce overlapping L0 runs; when four runs
    accumulate, a background-style compaction merges every L0 run with the
    single sorted L1 run (newest shadows oldest, tombstones drop out). The
    extra IO compaction generates is the garbage-collection cost §2
    attributes to LSM designs. *)

type t

val create : Msnap_fs.Fs.t -> name:string -> t

val add_run : t -> (string * string option) list -> unit
(** Flush a MemTable: write one L0 SSTable, compacting if due. *)

val get : t -> string -> string option option
(** Newest-first: [None] = absent everywhere, [Some None] = tombstone. *)

val collect_from : t -> string -> n:int -> (string * string) list
(** Up to [n] live pairs with key >= bound, merged across runs. *)

val l0_runs : t -> int
val compactions : t -> int
