(** The PostgreSQL-style database: transactions, MVCC visibility, tables
    with key access — the upper layer that stays identical across the four
    §7.3 storage variants.

    Transactions get a transaction id and a snapshot; reads see the newest
    version committed at snapshot time (plus their own writes); updates
    take a row lock held until commit, stamp [xmax] on the old version and
    append a new one. Commit durability is the storage variant's
    {!Storage.commit} (WAL fsync or [msnap_persist]).

    Indexes are volatile hash indexes (rebuilt at startup in a real
    system); index maintenance costs CPU but not IO in every variant, so
    the Fig. 6 comparison stays apples-to-apples. *)

type t
type txn

val open_db : Storage.t -> t

val storage : t -> Storage.t

val with_txn : t -> (txn -> 'a) -> 'a
(** Begin, run, commit; aborts (releasing row locks, leaving the
    transaction uncommitted in the clog) if the callback raises. *)

(** {2 Statements (inside a transaction)} *)

val insert : t -> txn -> table:string -> key:string -> string -> unit
val lookup : t -> txn -> table:string -> key:string -> string option
val update : t -> txn -> table:string -> key:string -> string -> bool
(** [false] if no visible row. Blocks on the row lock if another
    transaction is updating the same key. *)

val update_with : t -> txn -> table:string -> key:string -> (string -> string) -> bool
(** Read-modify-write under the row lock. *)

