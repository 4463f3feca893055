(** The key-value store: RocksDB-style API over three persistence designs.

    - {b Baseline} (§2's WAL-and-checkpoint): every Put appends to a WAL
      file and fsyncs, then inserts into a volatile skip-list MemTable;
      full MemTables flush to SSTables feeding a compacting LSM tree.
    - {b MemSnap} (§7.2): the MemTable is a {!Pskiplist} in a persistent
      region; Put inserts and issues one [msnap_persist]. No WAL, no
      SSTables, no compaction.
    - {b Aurora}: the same persistent skip list, persisted by a
      synchronous Aurora region checkpoint per write — the Table 9/10
      comparison point.

    [put_batch] is the WriteCommitted transaction unit: all writes land in
    the MemTable and become durable atomically. *)

type t

type backend =
  | Baseline of Msnap_fs.Fs.t
  | Memsnap of Msnap_core.Msnap.t
  | Aurora of Msnap_aurora.Aurora.Kernel.t

type config = {
  memtable_flush_bytes : int;  (** Baseline: flush threshold. *)
  region_pages : int;  (** Memsnap/Aurora: MemTable region capacity. *)
}

val default_config : config

val open_db : ?config:config -> backend -> name:string -> t

val recover : ?config:config -> Msnap_core.Msnap.t -> name:string -> t
(** Reopen the MemSnap-backed database [name] on a kernel booted over a
    post-crash device ([Msnap.boot ~format:false]): remap the region and
    rebuild the skip pointers from the persisted list. The baseline
    would replay its WAL; recovery is only modelled for the
    region-backed design, which is what the paper's crash experiments
    exercise. *)

(** The baseline's volatile MemTable: a {!Skiplist} whose payload is the
    entry, [None] for a tombstone. *)
module Memtable : sig
  type t

  val create : ?seed:int -> unit -> t

  val put : t -> string -> string option -> unit
  (** Insert or replace. Puts must be serialized; readers may run
      while a put yields at a hop charge. *)

  val list : t -> string option Skiplist.t

  val bytes : t -> int
  (** RocksDB's size estimate, which triggers the flush: key, entry and
      16 bytes per level for each node, an entry counting as its
      tagged length ([1 + len v], or [1] for a tombstone). *)

  val clear : t -> unit
end

val put : t -> key:string -> value:string -> unit
val put_batch : t -> (string * string) list -> unit
val get : t -> string -> string option
val delete : t -> string -> unit
val seek : t -> string -> n:int -> (string * string) list

val count : t -> int
val flushes : t -> int
val compactions : t -> int
