(** The scripted crash workloads — one {!Msnap_faults.Checker.workload}
    per engine, plus a checkpointing variant of SQLite's, ready for the
    checker or the [msnap crashcheck] CLI.

    Each script runs single-threaded on a two-disk stripe, records one
    history step per acked durability point, and is deterministic in its
    command stream, so every crash point the checker visits is a
    replayable [(prefix, torn_seed)] pair. *)

val msnap_workload : Msnap_faults.Checker.workload
val objstore_workload : Msnap_faults.Checker.workload
val fs_workload : Msnap_faults.Checker.workload
val sqlite_workload : Msnap_faults.Checker.workload

val sqlite_ckpt_workload : Msnap_faults.Checker.workload
(** The [sqlite] script with a 4-byte checkpoint threshold: every commit
    checkpoints the WAL into the db file and truncates it. *)

val pg_workload : Msnap_faults.Checker.workload
val rocks_workload : Msnap_faults.Checker.workload

val all : Msnap_faults.Checker.workload list
(** All seven, in canonical order: msnap, objstore, fs, sqlite,
    sqlite-ckpt, pg, rocks. *)

val by_name : string -> Msnap_faults.Checker.workload option
val names : string list
