(* Crash redo for the buffered (classic WAL) variant.

   After a crash the heap files on disk may hold anything from zeros to
   torn checkpoint writes; the WAL is authoritative. [recover] opens a
   fresh buffered storage over the recovered file system and replays the
   log's longest intact checksum-chained prefix: a record's full-page
   image (logged on the first touch of a block since the last
   checkpoint) rebases the block, the delta then reapplies the write —
   so whatever garbage the crash left in the heap file is overwritten
   before it is ever read. The WAL appender resumes at the end of the
   replayed prefix. *)

module Fs = Msnap_fs.Fs

let recover fs ?wal_checkpoint_bytes () =
  let st = Storage.ffs fs ?wal_checkpoint_bytes () in
  let wal = Fs.open_file fs Storage.wal_file_name in
  let pos = ref 0 in
  let ck = ref Storage.wal_cksum_seed in
  let stop = ref false in
  let applied = ref 0 in
  while not !stop do
    match Storage.wal_read_record fs wal ~off:!pos ~cksum:!ck with
    | None -> stop := true
    | Some r ->
      (match r.Storage.r_image with
      | Some img ->
        Storage.redo_apply st ~rel:r.r_rel ~blockno:r.r_blockno ~off:0 img
      | None -> ());
      Storage.redo_apply st ~rel:r.r_rel ~blockno:r.r_blockno ~off:r.r_off
        r.r_delta;
      pos := r.Storage.r_end;
      ck := r.Storage.r_cksum;
      incr applied
  done;
  Storage.redo_restore_wal st ~off:!pos ~cksum:!ck;
  (st, !applied)
