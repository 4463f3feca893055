(** The storage engine's page layer: cache, transactions, and a pluggable
    persistence backend.

    The paper's SQLite integration swaps the Unix file module for a
    MemSnap plugin while the B-tree and pager logic stay untouched (§7.1).
    This pager reproduces that seam: all durable IO goes through a
    {!backend} record, with {!Backend_wal} (WAL file + checkpoint over the
    file API) and {!Backend_msnap} (persistent region + [msnap_persist])
    as the two implementations.

    Concurrency follows SQLite: one writer at a time ({!begin_write} takes
    the database write lock), readers unrestricted. A transaction keeps
    no undo log: until commit the backend still holds every committed
    image, and {!rollback} reloads from it, as SQLite's WAL-mode
    rollback does. *)

type t

type backend = {
  b_read_page : int -> Bytes.t option;
      (** Fetch a page image from durable storage ([None] = never
          written). *)
  b_commit : (int * Bytes.t) list -> unit;
      (** Durably commit the transaction's page images, atomically. *)
}

val create : backend -> t

(** {2 Transactions} *)

val begin_write : t -> unit
val commit : t -> unit
val rollback : t -> unit
(** Drop every page the transaction dirtied from the cache, returning
    its buffer to the pool, and forget the pages it allocated: the next
    {!alloc_page} hands their numbers out again, as zeroed pages. No IO
    happens here, so a rollback on a powered-off device raises nothing;
    the next {!get_page} of a dropped page reloads the committed image
    through [b_read_page] and charges that read then.

    After a failed {!commit} the backend may hold part of the aborted
    transaction, and the reload returns whatever it holds. Commits fail
    only on a dead device, whose machine is discarded. *)

val in_txn : t -> bool

(** {2 Page access} *)

val get_page : t -> int -> Bytes.t
(** Read-only view (do not mutate without {!page_for_write}). *)

val page_for_write : t -> int -> Bytes.t
(** The same bytes, registered in the transaction's dirty set. No
    pre-image is copied: {!rollback} reloads from the backend.
    Requires an open transaction. *)

val alloc_page : t -> int
(** New page number (starts dirty, zeroed). Requires a transaction. *)

val npages : t -> int

val cached_pages : t -> int

val dirty_pages : t -> int
(** Dirty set size of the open transaction. *)

val restore_hwm : t -> int -> unit
(** Raise the high-water mark while recovering the catalog. *)

val hwm_changed_in_txn : t -> bool
(** Did the open transaction allocate pages? *)

val dispose : t -> unit
(** Return every cached page buffer to [Msnap_util.Pool] and empty the
    cache. Host-side teardown for the bench harness; call only with no
    open transaction, after the simulation is done with the
    database. *)
