module Fs = Msnap_fs.Fs
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Size = Msnap_util.Size
module Pool = Msnap_util.Pool

let frame_header = 24 (* SQLite WAL frame header bytes *)

module Slice = Msnap_util.Slice
module Wire = Msnap_util.Wire

(* Frame header layout: u32 magic, u32 pgno, u32 flags (bit 0 = commit,
   set on a transaction's last frame), u64 chain checksum at offset 12
   (over the payload chained from the previous frame's checksum, then
   the header's first 12 bytes), 4 spare zero bytes. The chain makes a
   frame valid only when every frame before it is, so recovery finds the
   longest intact prefix and applies it up to the last commit flag —
   transaction atomicity over a torn log tail. *)
let wal_magic = 0x4C57534D (* "MSWL" *)
let wal_cksum_seed = 0x57414C00

let none = Bytes.empty

type t = {
  fs : Fs.t;
  db_file : Fs.file;
  wal_file : Fs.file;
  (* The WAL index: latest logged image per page, indexed by page number
     and grown by doubling, as in [Pager]; [Bytes.empty] marks a page
     with no logged frame. Doubles as the "WAL as cache" role the paper
     describes. *)
  mutable wal_frames : Bytes.t array;
  mutable wal_size : int;
  mutable wal_cksum : int; (* chain state after the last appended frame *)
  hdr : Bytes.t; (* staging for one frame header; consumed per append *)
  threshold : int;
  mutable ckpts : int;
}

let create fs ~db_name ?(checkpoint_threshold = Size.mib 4) () =
  {
    fs;
    db_file = Fs.open_file fs db_name;
    wal_file = Fs.open_file fs (db_name ^ "-wal");
    wal_frames = Array.make 1024 none;
    wal_size = 0;
    wal_cksum = wal_cksum_seed;
    hdr = Bytes.create frame_header;
    threshold = checkpoint_threshold;
    ckpts = 0;
  }

(* The chain checksum a frame for [pgno]/[flags]/[payload] must carry
   after a predecessor with chain state [prev]. Also fills [t.hdr]. *)
let seal_frame t ~pgno ~flags payload =
  Bytes.fill t.hdr 0 frame_header '\000';
  Wire.set_u32 t.hdr 0 wal_magic;
  Wire.set_u32 t.hdr 4 pgno;
  Wire.set_u32 t.hdr 8 flags;
  let ck =
    Wire.chain t.hdr ~pos:0 ~len:12
      ~init:
        (Wire.chain payload ~pos:0 ~len:(Bytes.length payload)
           ~init:t.wal_cksum)
  in
  Wire.set_u64 t.hdr 12 ck;
  t.wal_cksum <- ck

module Sched = Msnap_sim.Sched

(* Pooled page copy (the caller — the pager cache — takes ownership). *)
let copy_page b =
  let c = Pool.alloc Page.size in
  Bytes.blit b 0 c 0 Page.size;
  c

let logged t pgno =
  if pgno < Array.length t.wal_frames then t.wal_frames.(pgno) else none

(* Make [b] the logged image of [pgno]; the one it replaces has no
   other holders ([read_page] hands out copies) and goes back to the
   pool. *)
let set_logged t pgno b =
  let cap = Array.length t.wal_frames in
  if pgno >= cap then begin
    let a = Array.make (max (pgno + 1) (2 * cap)) none in
    Array.blit t.wal_frames 0 a 0 cap;
    t.wal_frames <- a
  end;
  let old = t.wal_frames.(pgno) in
  if old != none then Pool.recycle old;
  t.wal_frames.(pgno) <- b

(* Empty the index, returning every logged image to the pool. *)
let clear_logged t =
  Array.iteri
    (fun pgno b ->
      if b != none then begin
        Pool.recycle b;
        t.wal_frames.(pgno) <- none
      end)
    t.wal_frames

let read_page t pgno =
  let b = logged t pgno in
  if b != none then Some (copy_page b)
  else
    let off = (pgno - 1) * Page.size in
    if off + Page.size > Fs.size t.fs t.db_file then None
    else
      Some
        (Sched.with_bucket Probe.Bucket.read (fun () ->
             Metrics.timed Probe.db_read (fun () ->
                 let b = Pool.alloc Page.size in
                 Fs.read_into t.fs t.db_file ~off b ~pos:0 ~len:Page.size;
                 b)))

let checkpoint t =
  t.ckpts <- t.ckpts + 1;
  (* Copy every logged page into the database file, in page order —
     random IO from the file system's point of view. Commits hold the
     pager's write lock, so the index cannot change under the walk. *)
  Array.iteri
    (fun pgno b ->
      if b != none then
        Sched.with_bucket Probe.Bucket.write (fun () ->
            Metrics.timed Probe.db_write (fun () ->
                Fs.write t.fs t.db_file ~off:((pgno - 1) * Page.size) b)))
    t.wal_frames;
  Sched.with_bucket Probe.Bucket.fsync (fun () ->
      Metrics.timed Probe.db_fsync (fun () -> Fs.fsync t.fs t.db_file);
      Metrics.timed Probe.db_fsync (fun () -> Fs.fsync t.fs t.wal_file));
  Fs.truncate t.fs t.wal_file 0;
  clear_logged t;
  t.wal_size <- 0;
  t.wal_cksum <- wal_cksum_seed

let commit t pages =
  (* Append one frame per page, then fsync the WAL: the transaction's
     durability point. The last frame carries the commit flag. *)
  let nframes = List.length pages in
  List.iteri
    (fun i (pgno, b) ->
      let flags = if i = nframes - 1 then 1 else 0 in
      seal_frame t ~pgno ~flags b;
      Sched.with_bucket Probe.Bucket.write (fun () ->
          Metrics.timed Probe.db_write (fun () ->
              (* [Fs.writev] consumes the slices before returning, so the
                 header staging buffer is reusable on the next frame. *)
              Fs.writev t.fs t.wal_file ~off:t.wal_size
                [ Slice.of_bytes t.hdr; Slice.of_bytes b ]));
      t.wal_size <- t.wal_size + frame_header + Page.size;
      (* A newer image supersedes the logged frame in its own buffer,
         which has no other holders ([read_page] hands out copies). *)
      let frame = logged t pgno in
      if frame != none then Bytes.blit b 0 frame 0 Page.size
      else set_logged t pgno (copy_page b))
    pages;
  Sched.with_bucket Probe.Bucket.fsync (fun () ->
      Metrics.timed Probe.db_fsync (fun () -> Fs.fsync t.fs t.wal_file));
  if t.wal_size >= t.threshold then checkpoint t

let backend t =
  { Pager.b_read_page = read_page t; b_commit = commit t }

let checkpoints_done t = t.ckpts

(* Crash recovery: rebuild the WAL index from the recovered log file.
   Frames are applied in log order while the checksum chain holds, but
   only up to the last commit-flagged frame — a transaction whose tail
   frames (or commit frame) are torn contributes nothing. *)
let recover fs ~db_name ?checkpoint_threshold () =
  let t = create fs ~db_name ?checkpoint_threshold () in
  let frame = frame_header + Page.size in
  let len = Fs.size fs t.wal_file in
  let buf = Bytes.create frame in
  let pos = ref 0 in
  let ck = ref wal_cksum_seed in
  let valid_end = ref 0 in
  let valid_ck = ref wal_cksum_seed in
  (* Frames of the transaction being parsed, promoted at commit. *)
  let pending = ref [] in
  let promote () =
    List.iter (fun (pgno, b) -> set_logged t pgno b) (List.rev !pending);
    pending := []
  in
  (try
     while !pos + frame <= len do
       Fs.read_into fs t.wal_file ~off:!pos buf ~pos:0 ~len:frame;
       if Wire.get_u32 buf 0 <> wal_magic then raise Exit;
       let pgno = Wire.get_u32 buf 4 in
       let flags = Wire.get_u32 buf 8 in
       let expect =
         (* The checksum field itself (bytes [12, 20)) is outside both
            sums. *)
         Wire.chain buf ~pos:0 ~len:12
           ~init:(Wire.chain buf ~pos:frame_header ~len:Page.size ~init:!ck)
       in
       if Wire.get_u64 buf 12 <> expect then raise Exit;
       ck := expect;
       let page = Pool.alloc Page.size in
       Bytes.blit buf frame_header page 0 Page.size;
       pending := (pgno, page) :: !pending;
       pos := !pos + frame;
       if flags land 1 <> 0 then begin
         promote ();
         valid_end := !pos;
         valid_ck := !ck
       end
     done
   with Exit -> ());
  List.iter (fun (_, b) -> Pool.recycle b) !pending;
  t.wal_size <- !valid_end;
  t.wal_cksum <- !valid_ck;
  t

(* Host-side teardown: frames still logged but not yet checkpointed go
   back to the pool (the WAL file's blocks belong to the Fs and are
   returned by [Fs.dispose]). *)
let dispose t =
  clear_logged t;
  t.wal_size <- 0
