module Fs = Msnap_fs.Fs
module Aspace = Msnap_vm.Aspace
module Msnap = Msnap_core.Msnap
module Sched = Msnap_sim.Sched
module Costs = Msnap_sim.Costs
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Size = Msnap_util.Size

module Wire = Msnap_util.Wire
module Slice = Msnap_util.Slice

let rel_block_limit = 4096 (* 32 MiB per relation *)
let bs = Bufmgr.block_size
let wal_record_header = 64
let mmap_arena = 0x6000 lsl 32

(* WAL record layout: u32 magic, u32 flags (bit 0 = carries a full-page
   image, bit 1 = the image bytes are real — the buffered variant has
   the post-write block in hand; the mapped variants log a zero image
   and are not redo-recoverable), u32 blockno, u32 off, u32 len, u16
   relation-name length, the name, and at offset 56 a u64 checksum over
   header[0,56) plus payloads, chained from the previous record — redo
   replays the longest intact prefix. Then [len] delta bytes and, with
   bit 0, [bs] image bytes. *)
let wal_magic = 0x5750534D (* "MSPW" *)
let wal_cksum_seed = 0x70675F77
let wal_flag_image = 1
let wal_flag_real = 2
let wal_name_max = 34
let wal_file_name = "pg_wal"

type wal = {
  w_fs : Fs.t;
  w_file : Fs.file;
  mutable w_off : int;
  mutable w_cksum : int; (* chain state after the last appended record *)
  (* Blocks whose full image was already logged since the last
     checkpoint: the full_page_writes bookkeeping. Nested rel -> blockno
     tables so the per-append membership test builds no tuple key; only
     reset/mem/replace are used, so iteration order never matters. *)
  fpw : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  ckpt_bytes : int;
  mutable w_scratch : Bytes.t; (* staging for one record *)
}

let wal_create fs ckpt_bytes =
  { w_fs = fs; w_file = Fs.open_file fs wal_file_name; w_off = 0;
    w_cksum = wal_cksum_seed; fpw = Hashtbl.create 16; ckpt_bytes;
    w_scratch = Bytes.empty }

(* Append one record for a write of [data] at [(rel, blockno, off)].
   [block] is the whole block after the write (the full-page-write image
   source) when the variant has it in a buffer; record sizes are
   identical either way, so the cost model cannot tell. *)
let wal_append w ~rel ~blockno ~off ~data ~block =
  let len = Bytes.length data in
  let blocks =
    match Hashtbl.find w.fpw rel with
    | blocks -> blocks
    | exception Not_found ->
      let blocks = Hashtbl.create 256 in
      Hashtbl.replace w.fpw rel blocks;
      blocks
  in
  let image =
    if Hashtbl.mem blocks blockno then 0
    else begin
      Hashtbl.replace blocks blockno ();
      bs (* first touch since checkpoint: log the whole block *)
    end
  in
  let rec_len = wal_record_header + len + image in
  if Bytes.length w.w_scratch < rec_len then
    w.w_scratch <- Bytes.make rec_len '\000';
  let buf = w.w_scratch in
  Bytes.fill buf 0 wal_record_header '\000';
  let name_len = String.length rel in
  if name_len > wal_name_max then
    invalid_arg ("Storage: relation name too long for WAL: " ^ rel);
  let flags =
    (if image > 0 then wal_flag_image else 0)
    lor (match block with Some _ -> wal_flag_real | None -> 0)
  in
  Wire.set_u32 buf 0 wal_magic;
  Wire.set_u32 buf 4 flags;
  Wire.set_u32 buf 8 blockno;
  Wire.set_u32 buf 12 off;
  Wire.set_u32 buf 16 len;
  Wire.set_u16 buf 20 name_len;
  Bytes.blit_string rel 0 buf 22 name_len;
  Bytes.blit data 0 buf wal_record_header len;
  if image > 0 then begin
    match block with
    | Some b -> Bytes.blit b 0 buf (wal_record_header + len) bs
    | None -> Bytes.fill buf (wal_record_header + len) bs '\000'
  end;
  let ck =
    Wire.checksum buf ~pos:wal_record_header ~len:(rec_len - wal_record_header)
      ~init:(Wire.checksum buf ~pos:0 ~len:56 ~init:w.w_cksum)
  in
  Wire.set_u64 buf 56 ck;
  w.w_cksum <- ck;
  let t0 = Metrics.timed_begin () in
  Fs.writev w.w_fs w.w_file ~off:w.w_off [ Slice.make buf ~pos:0 ~len:rec_len ];
  Metrics.timed_end Probe.db_write t0;
  w.w_off <- w.w_off + rec_len

let wal_commit w =
  Metrics.timed Probe.db_fsync (fun () -> Fs.fsync w.w_fs w.w_file)

let wal_reset_after_checkpoint w =
  Hashtbl.reset w.fpw;
  Fs.truncate w.w_fs w.w_file 0;
  w.w_off <- 0;
  w.w_cksum <- wal_cksum_seed

type mapped_state = {
  m_fs : Fs.t;
  m_aspace : Aspace.t;
  m_wal : wal;
  m_rels : (string, int * Fs.file) Hashtbl.t; (* rel -> (va, file) *)
  mutable next_va : int;
  buffer_copies : bool; (* ffs-mmap pins/copies through buffer pages *)
}

type region_state = {
  k : Msnap.t;
  create_lock : Msnap_sim.Sync.Mutex.t;
  rcache : (string, Msnap.md) Hashtbl.t;
      (* rel -> open region, so the per-op descriptor lookup is one
         string-keyed find instead of an option-boxing [region_by_name] *)
}

type variant =
  | Buffered of { buf : Bufmgr.t; wal : wal }
  | Mapped of mapped_state
  | Region of region_state

type t = { v : variant; vlabel : string }

let label t = t.vlabel

let file_smgr fs =
  (* rel -> file memo: spares the "pg/" ^ rel concat and directory
     lookup per storage-manager call. Relations are never removed. *)
  let files = Hashtbl.create 8 in
  let file_of rel =
    match Hashtbl.find files rel with
    | f -> f
    | exception Not_found ->
      let f = Fs.open_file fs ("pg/" ^ rel) in
      Hashtbl.replace files rel f;
      f
  in
  {
    Bufmgr.s_read =
      (fun ~rel ~blockno ->
        let f = file_of rel in
        if (blockno + 1) * bs <= Fs.size fs f then
          Metrics.timed Probe.db_read (fun () -> Fs.read fs f ~off:(blockno * bs) ~len:bs)
        else Bytes.make bs '\000');
    s_write =
      (fun ~rel ~blockno b ->
        let f = file_of rel in
        Metrics.timed Probe.db_write (fun () -> Fs.write fs f ~off:(blockno * bs) b));
    s_flush =
      (fun ~rel ->
        let f = file_of rel in
        Metrics.timed Probe.db_fsync (fun () -> Fs.fsync fs f));
  }

let ffs fs ?(wal_checkpoint_bytes = Size.mib 2) () =
  { v = Buffered { buf = Bufmgr.create (file_smgr fs); wal = wal_create fs wal_checkpoint_bytes };
    vlabel = "ffs" }

let mapped fs aspace ~buffer_copies ~label ~wal_checkpoint_bytes =
  { v =
      Mapped
        { m_fs = fs; m_aspace = aspace; m_wal = wal_create fs wal_checkpoint_bytes;
          m_rels = Hashtbl.create 8; next_va = mmap_arena; buffer_copies };
    vlabel = label }

let ffs_mmap fs aspace ?(wal_checkpoint_bytes = Size.mib 2) () =
  mapped fs aspace ~buffer_copies:true ~label:"ffs-mmap" ~wal_checkpoint_bytes

let ffs_mmap_bufdirect fs aspace ?(wal_checkpoint_bytes = Size.mib 2) () =
  mapped fs aspace ~buffer_copies:false ~label:"ffs-mmap-bd" ~wal_checkpoint_bytes

let memsnap k =
  (* PostgreSQL's MVCC lets one transaction flush pages carrying another's
     uncommitted appended tuples (§7.3 properties ② and ③), so strict
     per-thread exclusivity checking is off for this integration. *)
  Msnap.set_strict k false;
  { v =
      Region
        { k; create_lock = Msnap_sim.Sync.Mutex.create ();
          rcache = Hashtbl.create 8 };
    vlabel = "memsnap" }

(* Fixed mapping address of a relation in the mmap variants; the file is
   mapped on first touch. *)
let rel_va m ~rel =
  match Hashtbl.find m.m_rels rel with
  | va, _ -> va
  | exception Not_found ->
    let f = Fs.open_file m.m_fs ("pg/" ^ rel) in
    let va = m.next_va in
    m.next_va <- va + (rel_block_limit * bs);
    ignore (Fs.mmap m.m_fs f m.m_aspace ~va ~len:(rel_block_limit * bs));
    Hashtbl.replace m.m_rels rel (va, f);
    va

let region_of rs ~rel =
  match Hashtbl.find rs.rcache rel with
  | md -> md
  | exception Not_found ->
    let md =
      match Msnap.region_by_name rs.k ("pg/" ^ rel) with
      | Some md -> md
      | None ->
        (* Region creation allocates the fixed arena address and runs
           store IO; serialize concurrent first-touches of the same
           relation. *)
        Msnap_sim.Sync.Mutex.with_lock rs.create_lock (fun () ->
            match Msnap.region_by_name rs.k ("pg/" ^ rel) with
            | Some md -> md
            | None ->
              Msnap.open_region rs.k ~name:("pg/" ^ rel)
                ~len:(rel_block_limit * bs) ())
    in
    Hashtbl.replace rs.rcache rel md;
    md

let check_block blockno =
  if blockno < 0 || blockno >= rel_block_limit then
    invalid_arg "Storage: block out of range"

(* Reads into a caller-owned buffer: the heap's 2/4-byte header reads
   reuse a per-thread scratch. *)
let read_into t ~rel ~blockno ~off buf ~pos ~len =
  check_block blockno;
  match t.v with
  | Buffered { buf = bm; _ } ->
    let b = Bufmgr.read_buffer bm ~rel ~blockno in
    Sched.cpu (Costs.memcpy len);
    Bytes.blit b off buf pos len
  | Mapped m ->
    let va = rel_va m ~rel in
    Aspace.read_into m.m_aspace ~va:(va + (blockno * bs) + off) buf ~pos ~len
  | Region rs ->
    let md = region_of rs ~rel in
    Msnap.read_into rs.k md ~off:((blockno * bs) + off) buf ~pos ~len

let write t ~rel ~blockno ~off data =
  check_block blockno;
  let len = Bytes.length data in
  match t.v with
  | Buffered { buf; wal } ->
    let b = Bufmgr.read_buffer buf ~rel ~blockno in
    Sched.cpu (Costs.memcpy len);
    Bytes.blit data 0 b off len;
    Bufmgr.mark_dirty buf ~rel ~blockno;
    wal_append wal ~rel ~blockno ~off ~data ~block:(Some b)
  | Mapped m ->
    let va = rel_va m ~rel in
    if m.buffer_copies then
      (* ffs-mmap: the write is staged through a buffer page first. *)
      Sched.cpu (Costs.buffer_cache_lookup + Costs.memcpy len);
    Aspace.write m.m_aspace ~va:(va + (blockno * bs) + off) data;
    wal_append m.m_wal ~rel ~blockno ~off ~data ~block:None
  | Region rs ->
    let md = region_of rs ~rel in
    Msnap.write rs.k md ~off:((blockno * bs) + off) data

let commit t =
  match t.v with
  | Buffered { wal; _ } -> wal_commit wal
  | Mapped m -> wal_commit m.m_wal
  | Region { k; _ } ->
    Metrics.timed Probe.db_memsnap (fun () -> ignore (Msnap.persist k ()))

let checkpoint_tick t =
  match t.v with
  | Buffered { buf; wal } ->
    if wal.w_off >= wal.ckpt_bytes then begin
      Metrics.incr Probe.db_pg_checkpoint;
      Bufmgr.flush_all buf;
      wal_commit wal;
      wal_reset_after_checkpoint wal
    end
  | Mapped m ->
    if m.m_wal.w_off >= m.m_wal.ckpt_bytes then begin
      Metrics.incr Probe.db_pg_checkpoint;
      Hashtbl.iter (fun _ (_, f) -> Fs.msync m.m_fs f) m.m_rels;
      wal_commit m.m_wal;
      wal_reset_after_checkpoint m.m_wal
    end
  | Region _ -> ()

(* --- redo hooks (used by {!Redo}) --- *)

type wal_record = {
  r_rel : string;
  r_blockno : int;
  r_off : int;
  r_delta : Bytes.t;
  r_image : Bytes.t option; (* [Some] iff a real full-page image *)
  r_end : int; (* file offset just past this record *)
  r_cksum : int; (* chain state after this record *)
}

exception Redo_unsupported of string

(* Parse the record at [off], whose predecessor left chain state
   [cksum]. [None] when the file ends or the record fails validation.
   Raises [Redo_unsupported] on a record whose image bytes were not
   logged (the mapped variants). *)
let wal_read_record fs file ~off ~cksum =
  let fsize = Fs.size fs file in
  if off + wal_record_header > fsize then None
  else begin
    let hdr = Bytes.create wal_record_header in
    Fs.read_into fs file ~off hdr ~pos:0 ~len:wal_record_header;
    if Wire.get_u32 hdr 0 <> wal_magic then None
    else begin
      let flags = Wire.get_u32 hdr 4 in
      let blockno = Wire.get_u32 hdr 8 in
      let woff = Wire.get_u32 hdr 12 in
      let len = Wire.get_u32 hdr 16 in
      let name_len = Wire.get_u16 hdr 20 in
      let image = if flags land wal_flag_image <> 0 then bs else 0 in
      let rec_len = wal_record_header + len + image in
      if
        name_len > wal_name_max || woff + len > bs
        || blockno >= rel_block_limit || off + rec_len > fsize
      then None
      else begin
        let payload = Bytes.create (len + image) in
        Fs.read_into fs file ~off:(off + wal_record_header) payload ~pos:0
          ~len:(len + image);
        let ck =
          Wire.checksum payload ~pos:0 ~len:(len + image)
            ~init:(Wire.checksum hdr ~pos:0 ~len:56 ~init:cksum)
        in
        if Wire.get_u64 hdr 56 <> ck then None
        else if image > 0 && flags land wal_flag_real = 0 then
          raise
            (Redo_unsupported
               "pg WAL written by a mapped variant carries no images")
        else
          Some
            {
              r_rel = Bytes.sub_string hdr 22 name_len;
              r_blockno = blockno;
              r_off = woff;
              r_delta = Bytes.sub payload 0 len;
              r_image =
                (if image > 0 then Some (Bytes.sub payload len bs) else None);
              r_end = off + rec_len;
              r_cksum = ck;
            }
      end
    end
  end

(* A redo write: lands in the buffer pool like a normal write but logs
   nothing. Buffered variant only. *)
let redo_apply t ~rel ~blockno ~off data =
  check_block blockno;
  match t.v with
  | Buffered { buf; _ } ->
    let len = Bytes.length data in
    let b = Bufmgr.read_buffer buf ~rel ~blockno in
    Sched.cpu (Costs.memcpy len);
    Bytes.blit data 0 b off len;
    Bufmgr.mark_dirty buf ~rel ~blockno
  | Mapped _ | Region _ -> invalid_arg "Storage.redo_apply: buffered only"

(* Restore the WAL appender to the end of the replayed prefix so the
   recovered storage can keep committing. The full-page-write table is
   left empty: the first post-recovery touch of any block re-images it,
   as PostgreSQL does after crash redo. *)
let redo_restore_wal t ~off ~cksum =
  match t.v with
  | Buffered { wal; _ } ->
    wal.w_off <- off;
    wal.w_cksum <- cksum
  | Mapped _ | Region _ -> invalid_arg "Storage.redo_restore_wal: buffered only"
