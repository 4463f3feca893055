(** Sorted string table files — RocksDB's on-disk run format.

    A file of sorted records with a sparse in-memory index (one entry per
    64 records). Point lookups binary-search the index and
    read one segment; iteration streams segments sequentially. Values are
    stored with a tombstone tag so deletes shadow older runs. *)

type t

val build :
  Msnap_fs.Fs.t -> name:string -> (string * string option) list -> t
(** Write a run from sorted [(key, value-or-tombstone)] pairs. *)

val name : t -> string
val count : t -> int

val get : t -> string -> string option option
(** [None] = key absent here; [Some None] = tombstone; [Some (Some v)]. *)

val iter : t -> (string -> string option -> unit) -> unit

val remove : t -> unit
(** Delete the backing file (post-compaction). *)
