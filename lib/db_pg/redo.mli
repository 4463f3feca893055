(** Crash redo for the buffered (classic WAL) storage variant. *)

val recover :
  Msnap_fs.Fs.t -> ?wal_checkpoint_bytes:int -> unit ->
  Storage.t * int
(** Replay the WAL's longest intact prefix over a fresh buffered
    storage; returns it with the number of records applied. The heap
    files' on-disk bytes are never trusted: every replayed block is
    rebased from its full-page image first. Raises
    [Storage.Redo_unsupported] on a log written by a mapped variant. *)
