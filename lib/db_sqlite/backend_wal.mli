(** Baseline persistence: SQLite's WAL-and-checkpoint over the file API.

    Commit appends one frame per dirty page to the WAL file and fsyncs it.
    When the WAL passes the checkpoint threshold (4 MiB of frames, the
    SQLite default the paper cites), the latest version of every logged
    page is copied into the database file, both files are fsynced, and the
    WAL is truncated — the random-IO storm Table 7 measures.

    System calls are recorded under the Metrics names ["write"], ["read"],
    ["fsync"] so the harness can print the Table 7 columns. *)

type t

val create : Msnap_fs.Fs.t -> db_name:string -> ?checkpoint_threshold:int -> unit -> t

val recover : Msnap_fs.Fs.t -> db_name:string -> ?checkpoint_threshold:int -> unit -> t
(** Open over a crash-recovered file system: rebuilds the WAL index
    from the log's longest intact checksum-chained prefix, applying
    frames only up to the last commit-flagged one — a transaction with
    a torn tail contributes nothing. *)

val backend : t -> Pager.backend

val checkpoints_done : t -> int

val dispose : t -> unit
(** Return un-checkpointed WAL frame buffers to [Msnap_util.Pool].
    Host-side teardown; the backend must not be used afterwards. *)
