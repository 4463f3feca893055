(** The embedded database: tables over B-trees, SQLite-style layering.

    The "upper layer": named tables (each a B-tree), single-writer
    transactions, and a catalog persisted in page 1. Everything durable
    flows through the pager's backend, so the same database runs over the
    WAL-file baseline or the MemSnap plugin unchanged. *)

type t
type table

val open_db : Pager.backend -> t
(** Create or recover: reads the catalog from page 1 if the backend has
    one. *)

val pager : t -> Pager.t

val with_write_txn : t -> (unit -> 'a) -> 'a
(** Run under the database write lock; commits on return, rolls back on
    exception. Catalog/page-count changes are folded into the same
    transaction. *)

val create_table : t -> string -> table
(** Create (or return the existing) table. Opens its own transaction if
    none is active. *)

val table : t -> string -> table option

(** {2 Row operations — call inside [with_write_txn] for writes} *)

val put : table -> key:string -> value:string -> unit
val get : table -> string -> string option
val delete : table -> string -> bool
val count : table -> int

val iter : table -> (string -> string -> unit) -> unit
(** Every row, in key order. *)

val key_of_int : int -> string
(** Big-endian fixed-width encoding: numeric order = byte order. *)

val int_of_key : string -> int
