module Device = Msnap_blockdev.Device
module Balloc = Msnap_blockdev.Balloc
module Slice = Msnap_util.Slice
module Pool = Msnap_util.Pool
module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Costs = Msnap_sim.Costs
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Phys = Msnap_vm.Phys

type kind = Ffs | Zfs

(* Device layout (4 KiB units): [0, meta_blocks) inode-table area,
   [meta_blocks, meta_blocks + journal_blocks) journal / intent log,
   the rest is file data. *)
let meta_blocks = 64
let journal_blocks = 256
let reserved_blocks = meta_blocks + journal_blocks
let dev_bs = 4096

(* Zeroing rule: a fresh block (no old contents to read) is not zeroed
   when it enters the cache. Its bytes from [cb_zero_from] to the end of
   the block read as zeros but hold whatever the pool handed out.
   [writev] zeroes only the gap between the watermark and where its
   write lands, just before its blit, and advances the watermark past
   the write; appends therefore zero nothing. Every other reader settles
   the block first ({!get_block} zeroes the rest of it), and writeback
   zeroes only up to the length it lends to the device. The watermark
   only moves up, so a settled block stays settled. A block read from
   disk starts with its watermark at the length its last writeback put
   there ([f_wlen]): past it the device holds older bytes. *)
type cached_block = {
  cb_data : Bytes.t; (* pooled: recycled when the block leaves the cache *)
  mutable cb_zero_from : int; (* [cb_data] reads as zeros from here *)
  mutable cb_dirty : bool;
  mutable cb_pin : int;
      (* holders of [cb_data] across a scheduling point: in-flight
         writeback commands and writers inside a charge+blit window *)
  mutable cb_idx : int;
      (* fs-block index within its file; [gone] once the block left the
         cache while pinned, and the last unpin recycles *)
  cb_owner : (int, cached_block) Hashtbl.t; (* the file's [f_cache] *)
  mutable cb_prev : cached_block; (* LRU neighbours; self when unlinked *)
  mutable cb_next : cached_block;
}

let gone = -1
let pin cb = cb.cb_pin <- cb.cb_pin + 1

let unpin cb =
  cb.cb_pin <- cb.cb_pin - 1;
  if cb.cb_idx = gone && cb.cb_pin = 0 then Pool.recycle cb.cb_data

(* A block leaving the cache returns its buffer to the pool — unless a
   writer or writeback command still holds it across a scheduling point,
   in which case the last {!unpin} recycles. Pins never influence which
   block gets evicted (the victim choice feeds later RMW reads, a
   simulated value); they only defer the host-side recycle. *)
let discard_block cb =
  if cb.cb_pin = 0 then Pool.recycle cb.cb_data else cb.cb_idx <- gone

(* The LRU list: circular, doubly linked through the blocks, around a
   sentinel that holds no data; [lru.cb_next] is the least recently
   touched block. *)
let lru_sentinel () =
  let rec s =
    { cb_data = Bytes.empty; cb_zero_from = 0; cb_dirty = false; cb_pin = 0;
      cb_idx = gone; cb_owner = Hashtbl.create 1; cb_prev = s; cb_next = s }
  in
  s

let linked cb = cb.cb_next != cb

let unlink cb =
  cb.cb_prev.cb_next <- cb.cb_next;
  cb.cb_next.cb_prev <- cb.cb_prev;
  cb.cb_prev <- cb;
  cb.cb_next <- cb

let link_newest lru cb =
  cb.cb_prev <- lru.cb_prev;
  cb.cb_next <- lru;
  lru.cb_prev.cb_next <- cb;
  lru.cb_prev <- cb

type mm = {
  mm_aspace : Aspace.t;
  mm_va : int;
  mm_len : int;
  mm_dirty : (int, unit) Hashtbl.t; (* rel page -> dirtied since last msync *)
}

type file = {
  f_name : string;
  mutable f_size : int;
  f_blocks : (int, int) Hashtbl.t; (* fs-block idx -> first device block *)
  f_wlen : (int, int) Hashtbl.t;
      (* fs-block idx -> bytes its last writeback put on the device, for
         every mapped block; host-only *)
  f_cache : (int, cached_block) Hashtbl.t;
  mutable f_ind_blocks : int list; (* ZFS: current indirect blocks *)
  mutable f_mmaps : mm list;
}

type t = {
  dev : Device.t;
  f_kind : kind;
  bs : int; (* fs block size in bytes *)
  alloc : Balloc.t;
  files : (string, file) Hashtbl.t;
  mutable journal_cursor : int; (* device block within the journal area *)
  mutable txn_seq : int; (* FFS: last journal transaction sequence *)
  mutable meta_slot : int; (* FFS: next snapshot slot (0 or 1) *)
  lru : cached_block; (* sentinel of the LRU list over every file's cache *)
  mutable capacity : int; (* cache capacity in fs blocks, across files *)
  mutable cached_count : int;
  fsync_lock : Sync.Mutex.t;
  mutable scratch_zeros : Bytes.t;
      (* shared all-zero backing for ZFS intent records, indirect blocks
         and padding: those writes carry zeros, so every command can
         reference one read-only buffer instead of allocating. *)
  mutable scratch_journal : Bytes.t;
      (* staging for FFS journal records and commit records: real
         content, same write sizes as the zero-filled records had. Users
         write synchronously under [fsync_lock], so one buffer serves. *)
  mutable s_rmw_reads : int;
}

let block_size_of = function Ffs -> 32 * 1024 | Zfs -> 128 * 1024

let mkfs dev ~kind =
  {
    dev;
    f_kind = kind;
    bs = block_size_of kind;
    alloc =
      Balloc.create ~total_blocks:(Device.size dev / dev_bs)
        ~reserved:reserved_blocks;
    files = Hashtbl.create 16;
    journal_cursor = meta_blocks;
    txn_seq = 0;
    meta_slot = 0;
    lru = lru_sentinel ();
    capacity = 2048;
    cached_count = 0;
    fsync_lock = Sync.Mutex.create ();
    scratch_zeros = Bytes.empty;
    scratch_journal = Bytes.empty;
    s_rmw_reads = 0;
  }

let kind t = t.f_kind
let fs_block_size t = t.bs

let open_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None ->
    let f =
      { f_name = name; f_size = 0; f_blocks = Hashtbl.create 64;
        f_wlen = Hashtbl.create 64; f_cache = Hashtbl.create 64;
        f_ind_blocks = []; f_mmaps = [] }
    in
    Hashtbl.replace t.files name f;
    f

let exists t name = Hashtbl.mem t.files name

let remove t name =
  match Hashtbl.find_opt t.files name with
  | None -> ()
  | Some f ->
    Hashtbl.iter
      (fun _ first -> Balloc.free_now t.alloc (List.init (t.bs / dev_bs) (fun i -> first + i)))
      f.f_blocks;
    Balloc.free_now t.alloc f.f_ind_blocks;
    t.cached_count <- t.cached_count - Hashtbl.length f.f_cache;
    Hashtbl.iter (fun _ cb -> unlink cb; discard_block cb) f.f_cache;
    Hashtbl.remove t.files name

let size _t f = f.f_size
let resident_blocks _t f = Hashtbl.length f.f_cache
let set_cache_capacity t n = t.capacity <- n

let rmw_reads t = t.s_rmw_reads

(* A scratch backing of at least [n] bytes: [b] itself, or a zeroed
   replacement. Growth is rare and happens only between commands (every
   user of the scratch writes synchronously under [fsync_lock]), so the
   old backing can be recycled immediately. *)
let grow_scratch b n =
  if Bytes.length b >= n then b
  else begin
    Pool.recycle b;
    Pool.alloc_zeroed n
  end

let zero_slice t n =
  t.scratch_zeros <- grow_scratch t.scratch_zeros n;
  Slice.make t.scratch_zeros ~pos:0 ~len:n

(* Claim the next [blocks] ring blocks, wrapping when the tail doesn't
   fit. Returns the device byte offset; every record therefore starts on
   a device-block boundary. *)
let journal_claim t blocks =
  if t.journal_cursor + blocks > meta_blocks + journal_blocks then
    t.journal_cursor <- meta_blocks;
  let off = t.journal_cursor * dev_bs in
  t.journal_cursor <- t.journal_cursor + blocks;
  off

(* Claim ring blocks for a record of [nbytes] logical bytes. *)
let journal_place t nbytes =
  if Trace.is_on () then
    Trace.instant Probe.fs_journal ~argi:("bytes", nbytes);
  let blocks = max 1 ((nbytes + dev_bs - 1) / dev_bs) in
  (journal_claim t blocks, blocks)

(* ZFS intent log: content-free, as before. *)
let journal_write t nbytes =
  let off, blocks = journal_place t nbytes in
  Device.write_slice t.dev ~off (zero_slice t (blocks * dev_bs))

let journal_scratch t n =
  t.scratch_journal <- grow_scratch t.scratch_journal n;
  Bytes.fill t.scratch_journal 0 n '\000';
  t.scratch_journal

(* --- FFS journal record formats ---

   The ring holds, per transaction [seq], [n] 128-byte intent entries
   (packed into whole device blocks) followed by one 512-byte commit
   record in its own block. Only commit records matter to recovery: the
   transaction's data and inode writes complete strictly before the
   commit record is issued, so a durable commit record implies durable
   data — FFS transactions are valid iff their commit record is intact,
   and the 512-byte record is sector-atomic under torn writes. Intent
   entries exist for media realism (and debugging) only.

   Write sizes are exactly those of the old zero-filled records, but
   the commit record now occupies its own ring block (the old cursor
   never advanced past it, so the next transaction overwrote it — fatal
   once recovery actually reads them). The extra block per transaction
   shifts subsequent ring offsets, and on a stripe the offset picks the
   member disk, so FFS-heavy latencies move by a hair vs the
   pre-journal-format baseline. That is a semantic fix, not drift:
   within this format, all simulated values are deterministic as
   ever. *)

let entry_magic = 0x4645534A (* "JSEF" *)
let commit_magic = 0x4643534A (* "JSCF" *)
let commit_name_max = 120
let commit_maps_off = 146
let commit_cksum_off = 504
let commit_maps_max = (commit_cksum_off - commit_maps_off) / 8 (* 44 *)
let commit_overflow = 0xFFFFFFFF

module Wire = Msnap_util.Wire

(* Intent entries for one transaction: n * 128 logical bytes. *)
let journal_entries t ~seq dirty =
  let n = List.length dirty in
  let off, blocks = journal_place t (n * 128) in
  let buf = journal_scratch t (blocks * dev_bs) in
  List.iteri
    (fun ord (idx, _) ->
      let p = ord * 128 in
      (* Entries past the first device block of a huge transaction are
         truncated silently: recovery never reads them. *)
      if p + 128 <= blocks * dev_bs then begin
        Wire.set_u32 buf p entry_magic;
        Wire.set_u32 buf (p + 4) idx;
        Wire.set_u64 buf (p + 8) seq;
        Wire.set_u64 buf (p + 16) ord
      end)
    dirty;
  Device.write_slice t.dev ~off (Slice.make buf ~pos:0 ~len:(blocks * dev_bs))

(* The 512-byte commit record: transaction seq, file name, new size and
   the transaction's (fs-block -> device-block) mappings. A transaction
   with more mappings than fit is stamped with an overflow marker —
   recovery refuses to mount past it rather than replay half a
   transaction. *)
let journal_commit t ~seq f dirty =
  let off = journal_claim t 1 in
  let buf = journal_scratch t 512 in
  let nmaps = List.length dirty in
  Wire.set_u32 buf 0 commit_magic;
  Wire.set_u64 buf 8 seq;
  Wire.set_u64 buf 16 f.f_size;
  let name_len = String.length f.f_name in
  if name_len > commit_name_max then
    invalid_arg ("Fs: file name too long for journal: " ^ f.f_name);
  Wire.set_u16 buf 24 name_len;
  Bytes.blit_string f.f_name 0 buf 26 name_len;
  if nmaps > commit_maps_max then Wire.set_u32 buf 4 commit_overflow
  else begin
    Wire.set_u32 buf 4 nmaps;
    List.iteri
      (fun i (idx, _) ->
        let first = Hashtbl.find f.f_blocks idx in
        Wire.set_u32 buf (commit_maps_off + (i * 8)) idx;
        Wire.set_u32 buf (commit_maps_off + (i * 8) + 4) first)
      dirty
  end;
  Wire.set_u64 buf commit_cksum_off
    (Wire.checksum buf ~pos:0 ~len:commit_cksum_off);
  Device.write_slice t.dev ~off (Slice.make buf ~pos:0 ~len:512)

(* --- buffer cache --- *)

(* Drop the least-recently-used *clean* blocks across all files, never
   the block a caller is actively using ([keep]). Dirty blocks are pinned
   until writeback, so the cache can transiently exceed its capacity, as
   a real buffer cache under writeback pressure. The victims feed later
   RMW reads, a simulated value, so the order is the policy: every
   lookup moves its block to the newest end, and a miss links the new
   block there, so list order is touch order and no two blocks tie. The
   walk starts at the oldest end and stops after [excess] victims; it
   passes only the dirty blocks and [keep] on its way. *)
let evict_if_needed ?keep t =
  let excess = ref (t.cached_count - t.capacity) in
  let cb = ref t.lru.cb_next in
  while !excess > 0 && !cb != t.lru do
    let victim = !cb in
    cb := victim.cb_next;
    let kept = match keep with Some k -> k == victim | None -> false in
    if (not victim.cb_dirty) && not kept then begin
      unlink victim;
      Hashtbl.remove victim.cb_owner victim.cb_idx;
      t.cached_count <- t.cached_count - 1;
      discard_block victim;
      decr excess
    end
  done

(* A lookup that raced with an eviction, truncate or remove across its
   charge finds its block unlinked and leaves it so. *)
let touch t cb =
  if linked cb then begin
    unlink cb;
    link_newest t.lru cb
  end

(* Make [cb_data] hold the block's contents up to [upto] (see the
   zeroing rule at [cached_block]). *)
let zero_upto cb upto =
  let z = cb.cb_zero_from in
  if z < upto then begin
    Bytes.fill cb.cb_data z (upto - z) '\000';
    cb.cb_zero_from <- upto
  end

(* Look up or cache a block for [writev], reading it from disk when a
   read-modify-write requires the old contents ([need_old]). A fresh
   block arrives unzeroed, with its watermark at 0; a block read from
   disk, with its watermark where its last writeback ended. *)
let lookup_block t f idx ~need_old =
  match Hashtbl.find_opt f.f_cache idx with
  | Some cb ->
    Sched.cpu Costs.buffer_cache_lookup;
    touch t cb;
    cb
  | None ->
    Sched.cpu Costs.buffer_cache_lookup;
    (* The device read fills the whole block, and the watermark says
       which of it holds the file's bytes (none, for a fresh block), so
       an uninitialized pooled buffer serves both. *)
    let data = Pool.alloc t.bs in
    let zero_from =
      match Hashtbl.find_opt f.f_blocks idx with
      | Some first when need_old ->
        (* Taken before the read yields: a truncate may unmap the block
           meanwhile. *)
        let wlen = Hashtbl.find f.f_wlen idx in
        t.s_rmw_reads <- t.s_rmw_reads + 1;
        Device.read_into t.dev ~off:(first * dev_bs) (Slice.of_bytes data);
        wlen
      | Some _ | None -> 0
    in
    (* Another thread may have missed the same block and cached it while
       this one was charged or reading: its copy may already carry writes,
       so it wins and the fresh buffer goes back to the pool. *)
    match Hashtbl.find_opt f.f_cache idx with
    | Some cb ->
      Pool.recycle data;
      touch t cb;
      cb
    | None ->
      let rec cb =
        { cb_data = data; cb_zero_from = zero_from;
          cb_dirty = false; cb_pin = 0; cb_idx = idx; cb_owner = f.f_cache;
          cb_prev = cb; cb_next = cb }
      in
      link_newest t.lru cb;
      Hashtbl.replace f.f_cache idx cb;
      t.cached_count <- t.cached_count + 1;
      evict_if_needed ~keep:cb t;
      cb

(* The cached block with its old contents, settled: every reader but
   [writev] comes through here. *)
let get_block t f idx =
  let cb = lookup_block t f idx ~need_old:true in
  zero_upto cb t.bs;
  cb

(* --- read / write --- *)

(* One buffered write of the concatenation of [slices] at [off]. The
   syscall/rangelock charge and the per-fs-block-chunk memcpy charges are
   those of a single write of the combined length, so callers can gather
   a header and a payload without materializing the frame first. The
   loops keep their cursors in local refs, not closures, so a write
   allocates nothing beyond what [get_block] does. *)
let writev t f ~off slices =
  let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
  Sched.cpu (Costs.syscall + Costs.vfs_call + Costs.rangelock);
  let len = List.fold_left (fun a s -> a + Slice.length s) 0 slices in
  (* Scatter cursor: the payload's next byte is [src_pos] into the head
     of [rem]. *)
  let rem = ref slices and src_pos = ref 0 in
  let pos = ref off and remaining = ref len in
  while !remaining > 0 do
    let idx = !pos / t.bs in
    let within = !pos mod t.bs in
    let n = min !remaining (t.bs - within) in
    (* Sub-block writes to on-disk blocks must read the old contents. *)
    let covers_whole = within = 0 && n = t.bs in
    let cb = lookup_block t f idx ~need_old:(not covers_whole) in
    (* The memcpy charge can yield; pin so that an eviction during the
       yield defers the buffer's recycle past our blit. (The write into
       an evicted block is lost either way, as before pooling.) *)
    pin cb;
    Sched.cpu (Costs.memcpy n);
    (* Zero the unwritten gap before the write and move the watermark
       past it; no scheduling point until the blit is done. *)
    if cb.cb_zero_from < within + n then begin
      zero_upto cb within;
      cb.cb_zero_from <- within + n
    end;
    let dst_pos = ref within and todo = ref n in
    while !todo > 0 do
      match !rem with
      | [] -> assert false
      | s :: tl ->
        let k = min (Slice.length s - !src_pos) !todo in
        Slice.blit_to_bytes s ~src_pos:!src_pos cb.cb_data ~dst_pos:!dst_pos
          ~len:k;
        dst_pos := !dst_pos + k;
        todo := !todo - k;
        if !src_pos + k = Slice.length s then begin
          rem := tl;
          src_pos := 0
        end
        else src_pos := !src_pos + k
    done;
    cb.cb_dirty <- true;
    unpin cb;
    pos := !pos + n;
    remaining := !remaining - n
  done;
  if off + len > f.f_size then f.f_size <- off + len;
  if Trace.is_on () then
    Trace.complete Probe.fs_write ~dur:(Sched.now () - trace_t0)
      ~argi:("bytes", len)

let write t f ~off data = writev t f ~off [ Slice.of_bytes data ]

(* Read into a caller-owned buffer — the exact charges of [read], which
   is this plus the output allocation. Every chunk is either blitted from
   the cache or zero-filled (holes), so the buffer need not be zeroed on
   entry. *)
let read_into t f ~off buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Fs.read_into: bad slice";
  Sched.cpu (Costs.syscall + Costs.vfs_call);
  let rec go off pos remaining =
    if remaining > 0 then begin
      let idx = off / t.bs in
      let within = off mod t.bs in
      let n = min remaining (t.bs - within) in
      let cached = Hashtbl.mem f.f_cache idx in
      let on_disk = Hashtbl.mem f.f_blocks idx in
      if cached || on_disk then begin
        let cb = get_block t f idx in
        pin cb;
        Sched.cpu (Costs.memcpy n);
        Bytes.blit cb.cb_data within buf pos n;
        unpin cb
      end
      else Bytes.fill buf pos n '\000' (* hole, like read(2) past sparse regions *);
      go (off + n) (pos + n) (remaining - n)
    end
  in
  go off pos len

let read t f ~off ~len =
  let out = Bytes.create len in
  read_into t f ~off out ~pos:0 ~len;
  out

let truncate t f newsize =
  Sched.cpu (Costs.syscall + Costs.vfs_call);
  if newsize < f.f_size then begin
    (* Like ftruncate(2), zero the kept tail block past the new EOF, so
       a later extending write exposes zeros there, not the old bytes.
       Fetching it is the only scheduling point; the rest is atomic. *)
    let within = newsize mod t.bs and tail = newsize / t.bs in
    if within <> 0 && (Hashtbl.mem f.f_cache tail || Hashtbl.mem f.f_blocks tail)
    then begin
      let cb = get_block t f tail in
      Bytes.fill cb.cb_data within (t.bs - within) '\000';
      cb.cb_dirty <- true
    end;
    let keep_blocks = (newsize + t.bs - 1) / t.bs in
    let dropped = ref [] in
    Hashtbl.iter
      (fun idx first -> if idx >= keep_blocks then dropped := (idx, first) :: !dropped)
      f.f_blocks;
    List.iter
      (fun (idx, first) ->
        Hashtbl.remove f.f_blocks idx;
        Hashtbl.remove f.f_wlen idx;
        Balloc.free_now t.alloc (List.init (t.bs / dev_bs) (fun i -> first + i)))
      !dropped;
    let drop_cache = ref [] in
    Hashtbl.iter
      (fun idx cb -> if idx >= keep_blocks then drop_cache := (idx, cb) :: !drop_cache)
      f.f_cache;
    List.iter
      (fun (idx, cb) ->
        Hashtbl.remove f.f_cache idx;
        t.cached_count <- t.cached_count - 1;
        unlink cb;
        discard_block cb)
      !drop_cache
  end;
  f.f_size <- newsize

(* --- fsync --- *)

(* Resident-page scan: fsync/msync inspects every resident page of the
   file to find the dirty ones; the cost grows with the cached footprint,
   not the dirty set (the Fig. 5 baseline effect). *)
let charge_resident_scan t f =
  let pages = Hashtbl.length f.f_cache * (t.bs / 4096) in
  Sched.cpu (pages * Costs.fsync_resident_scan_per_page)

let dirty_blocks f =
  Hashtbl.fold (fun idx cb acc -> if cb.cb_dirty then (idx, cb) :: acc else acc)
    f.f_cache []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Bytes of a block that are below EOF (tail blocks write only the used
   prefix, rounded to device blocks). *)
let used_len t f idx =
  let upto = min t.bs (f.f_size - (idx * t.bs)) in
  if upto <= 0 then 0 else (upto + dev_bs - 1) / dev_bs * dev_bs

let ensure_allocated t f idx =
  match Hashtbl.find_opt f.f_blocks idx with
  | Some first -> first
  | None ->
    let run = Balloc.alloc_run t.alloc (t.bs / dev_bs) in
    let first = List.hd run in
    Hashtbl.replace f.f_blocks idx first;
    first

(* FFS: journal intent, write blocks in place with dependency-limited
   concurrency, then metadata, then journal commit. *)
let fsync_ffs t f dirty =
  let n = List.length dirty in
  Sched.cpu (n * Costs.journal_entry);
  let seq = t.txn_seq + 1 in
  t.txn_seq <- seq;
  journal_entries t ~seq dirty;
  (* Soft-updates dependency ordering allows only shallow overlap. *)
  let qd = 2 in
  (* One window's writes, newest first. No scheduling point separates
     their preps, so forking them together at the window's end equals
     forking each as it is prepared. They are awaited oldest first: only
     when both fail with different exceptions does that pick a different
     one than newest first, and a power cut fails both alike. *)
  let window = ref [] in
  let flush_window () =
    Sync.fork_join ~name:"ffs-write" (List.rev !window);
    window := []
  in
  List.iter
    (fun (idx, cb) ->
      let first = ensure_allocated t f idx in
      let len = used_len t f idx in
      Hashtbl.replace f.f_wlen idx len;
      if len > 0 then begin
        (* Slice over the cache block itself: dirty blocks stay in the
           cache, and writeback completes before fsync returns, so the
           ownership rule holds without a staging copy. Marking the block
           clean below makes it evictable mid-writeback, so the command
           pins the buffer until the device is done with it. *)
        zero_upto cb len;
        let data = Slice.make cb.cb_data ~pos:0 ~len in
        pin cb;
        let write () =
          match Device.write_slice t.dev ~off:(first * dev_bs) data with
          | () -> unpin cb
          | exception exn ->
            unpin cb;
            raise exn
        in
        window := write :: !window;
        if List.length !window >= qd then flush_window ()
      end;
      cb.cb_dirty <- false)
    dirty;
  flush_window ();
  (* Inode + block bitmap update, then the journal commit record. *)
  Device.write_slice t.dev ~off:0 (zero_slice t dev_bs);
  journal_commit t ~seq f dirty

(* ZFS: intent log for small syncs, then COW data, indirect chain and
   uberblock. *)
let fsync_zfs t f dirty =
  let total_used =
    List.fold_left (fun a (idx, _) -> a + used_len t f idx) 0 dirty
  in
  if total_used <= 64 * 1024 then journal_write t total_used;
  (* COW: every dirty record moves to fresh blocks. *)
  let segs =
    List.map
      (fun (idx, cb) ->
        let old = Hashtbl.find_opt f.f_blocks idx in
        let run = Balloc.alloc_run t.alloc (t.bs / dev_bs) in
        let first = List.hd run in
        Hashtbl.replace f.f_blocks idx first;
        (match old with
        | Some o -> Balloc.free_now t.alloc (List.init (t.bs / dev_bs) (fun i -> o + i))
        | None -> ());
        (* Clean (hence evictable) as soon as dirty is cleared; pin the
           buffer until the vectored command below has committed it. *)
        cb.cb_dirty <- false;
        pin cb;
        let len = max dev_bs (used_len t f idx) in
        Hashtbl.replace f.f_wlen idx len;
        zero_upto cb len;
        (first * dev_bs, Slice.make cb.cb_data ~pos:0 ~len))
      dirty
  in
  Device.writev t.dev segs;
  List.iter (fun (_, cb) -> unpin cb) dirty;
  (* Indirect blocks: one per record (they are scattered for random
     updates), written COW as well, then the uberblock. *)
  let n = List.length dirty in
  Sched.cpu (n * Costs.cow_indirect_update);
  let nind = ((n + 15) / 16) + 1 in
  Balloc.free_now t.alloc f.f_ind_blocks;
  let ind = Balloc.alloc_run t.alloc nind in
  f.f_ind_blocks <- ind;
  Device.writev t.dev (List.map (fun b -> (b * dev_bs, zero_slice t dev_bs)) ind);
  Device.write_slice t.dev ~off:(dev_bs / 2) (zero_slice t 512)

let fsync t f =
  let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
  Sched.cpu (Costs.syscall + Costs.vfs_call);
  charge_resident_scan t f;
  let nblocks = ref 0 in
  Sync.Mutex.with_lock t.fsync_lock (fun () ->
      let dirty = dirty_blocks f in
      if dirty <> [] then begin
        nblocks := List.length dirty;
        let wb () =
          match t.f_kind with
          | Ffs -> fsync_ffs t f dirty
          | Zfs -> fsync_zfs t f dirty
        in
        if Trace.is_on () then
          Trace.with_span Probe.fs_writeback
            ~argi:("blocks", !nblocks) wb
        else wb ()
      end);
  (* Writeback made blocks clean and therefore reclaimable. *)
  evict_if_needed t;
  if Trace.is_on () then
    Trace.complete Probe.fs_fsync ~dur:(Sched.now () - trace_t0)
      ~args:[ ("file", Trace.S f.f_name); ("dirty_blocks", Trace.I !nblocks) ]

(* --- mmap --- *)

let mmap t f aspace ~va ~len =
  let dirty = Hashtbl.create 64 in
  let mm = { mm_aspace = aspace; mm_va = va; mm_len = len; mm_dirty = dirty } in
  f.f_mmaps <- mm :: f.f_mmaps;
  let pager =
    { Aspace.page_in =
        (fun rel ->
          let off = rel * Addr.page_size in
          if off >= f.f_size && not (Hashtbl.mem f.f_blocks (off / t.bs)) then `Zero
          else begin
            let cb = get_block t f (off / t.bs) in
            let within = off mod t.bs in
            (* Fill the frame straight from the cache block (frame
               alloc, then a page-sized memcpy charge), with no staging
               copy. The blit runs under a pin, which keeps the buffer
               alive if the alloc/memcpy charges yield into an
               eviction. *)
            pin cb;
            Fun.protect
              ~finally:(fun () -> unpin cb)
              (fun () ->
                let p = Phys.alloc (Aspace.phys aspace) in
                Sched.cpu (Costs.memcpy Addr.page_size);
                Bytes.blit cb.cb_data within p.Phys.data 0 Addr.page_size;
                `Page p)
          end)
    }
  in
  let on_write_fault (fault : Aspace.fault) =
    let rel = Aspace.mapping_of_fault_rel_page fault in
    Hashtbl.replace dirty rel ();
    Msnap_vm.Ptloc.set fault.Aspace.f_loc
      (Msnap_vm.Pte.set_writable (Msnap_vm.Ptloc.get fault.Aspace.f_loc) true)
  in
  (* Pages start read-only so that the first store faults and marks the
     backing block dirty — the classic msync dirty-tracking setup. *)
  Aspace.map aspace ~name:("mmap:" ^ f.f_name) ~va ~len ~writable:true
    ~new_pages_writable:false ~pager ~on_write_fault ()

let msync t f =
  let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
  Sched.cpu Costs.syscall;
  List.iter
    (fun mm ->
      let rels = Hashtbl.fold (fun r () acc -> r :: acc) mm.mm_dirty [] in
      let rels = List.sort compare rels in
      (* Gather page contents into the cache and re-protect the pages. *)
      List.iter
        (fun rel ->
          let va = mm.mm_va + (rel * Addr.page_size) in
          let page = Aspace.page_for_read mm.mm_aspace ~va in
          let off = rel * Addr.page_size in
          let cb = get_block t f (off / t.bs) in
          pin cb;
          Sched.cpu (Costs.memcpy Addr.page_size);
          Bytes.blit page.Phys.data 0 cb.cb_data (off mod t.bs) Addr.page_size;
          cb.cb_dirty <- true;
          unpin cb;
          if off + Addr.page_size > f.f_size then f.f_size <- off + Addr.page_size;
          Aspace.protect_page mm.mm_aspace ~vpn:(Addr.vpn_of_va va);
          Sched.cpu Costs.pte_update)
        rels;
      Aspace.shootdown mm.mm_aspace
        (List.map (fun rel -> Addr.vpn_of_va (mm.mm_va + (rel * Addr.page_size))) rels);
      Hashtbl.reset mm.mm_dirty)
    f.f_mmaps;
  fsync t f;
  if Trace.is_on () then
    Trace.complete Probe.fs_msync ~dur:(Sched.now () - trace_t0)
      ~args:[ ("file", Trace.S f.f_name) ]

(* --- metadata ---

   The inode-table snapshot is a real parseable record now, written
   into one of two alternating slots (device blocks 1 and 32) so a
   crash mid-snapshot always leaves the previous one intact. The write
   size is still derived from the legacy string serialization, so
   existing callers issue byte-for-byte the same IO they always did;
   only the payload and (between slots) the offset differ, neither of
   which a simulated value depends on. *)

let snap_magic = 0x50534E46 (* "FNSP" *)
let snap_flag_overflow = 1
let snap_header = 28
let snap_slot_cap = 31 * dev_bs (* slots at blocks 1 and 32 *)

(* Mappings of [f] as (first fs-block idx, first device block, count)
   extents, idx-sorted. *)
let extents_of t f =
  let step = t.bs / dev_bs in
  let maps =
    List.sort compare
      (Hashtbl.fold (fun idx first acc -> (idx, first) :: acc) f.f_blocks [])
  in
  List.rev
    (List.fold_left
       (fun acc (idx, first) ->
         match acc with
         | (i0, f0, n) :: tl when idx = i0 + n && first = f0 + (n * step) ->
           (i0, f0, n + 1) :: tl
         | _ -> (idx, first, 1) :: acc)
       [] maps)

(* Fill [buf] with the snapshot record: header, name-sorted file table,
   trailing checksum. A table that does not fit leaves an empty,
   overflow-flagged (hence unusable for recovery) snapshot. *)
let encode_snapshot t buf =
  let cap = Bytes.length buf in
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.files [])
  in
  let pos = ref snap_header in
  let ok = ref true in
  List.iter
    (fun name ->
      if !ok then begin
        let f = Hashtbl.find t.files name in
        let exts = extents_of t f in
        let need = 2 + String.length name + 8 + 4 + (12 * List.length exts) in
        if !pos + need + 8 > cap then ok := false
        else begin
          let p = !pos in
          Wire.set_u16 buf p (String.length name);
          Bytes.blit_string name 0 buf (p + 2) (String.length name);
          let p = p + 2 + String.length name in
          Wire.set_u64 buf p f.f_size;
          Wire.set_u32 buf (p + 8) (List.length exts);
          List.iteri
            (fun i (idx, first, count) ->
              let q = p + 12 + (i * 12) in
              Wire.set_u32 buf q idx;
              Wire.set_u32 buf (q + 4) first;
              Wire.set_u32 buf (q + 8) count)
            exts;
          pos := !pos + need
        end
      end)
    names;
  if not !ok then begin
    Bytes.fill buf 0 cap '\000';
    pos := snap_header
  end;
  Wire.set_u32 buf 0 snap_magic;
  Wire.set_u32 buf 4 (if !ok then 0 else snap_flag_overflow);
  Wire.set_u64 buf 8 t.txn_seq;
  Wire.set_u32 buf 16 (if !ok then List.length names else 0);
  Wire.set_u32 buf 20 t.journal_cursor;
  Wire.set_u32 buf 24 !pos;
  Wire.set_u64 buf !pos (Wire.checksum buf ~pos:0 ~len:!pos)

(* [String.length (string_of_int n)], by arithmetic. *)
let decimal_width n =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

(* Length of the legacy text form of the inode table, which pins the
   cost model's snapshot IO size: per file its name, its size, then
   "idx:first" for each block mapping. *)
let meta_text_length t =
  Hashtbl.fold
    (fun name f acc ->
      Hashtbl.fold
        (fun idx first acc -> acc + decimal_width idx + 1 + decimal_width first)
        f.f_blocks
        (acc + String.length name + decimal_width f.f_size))
    t.files 0

let sync_meta t =
  let len = min (meta_text_length t) ((meta_blocks - 1) * dev_bs) in
  let data = Pool.alloc_zeroed (Msnap_util.Bits.round_up (max len dev_bs) dev_bs) in
  Fun.protect
    ~finally:(fun () -> Pool.recycle data)
    (fun () ->
      encode_snapshot t data;
      let off =
        if Bytes.length data <= snap_slot_cap then begin
          let slot = t.meta_slot in
          t.meta_slot <- 1 - slot;
          if slot = 0 then dev_bs else 32 * dev_bs
        end
        else dev_bs (* legacy-size monster snapshot: single slot *)
      in
      (* The write commits before returning, so the staging buffer can
         go straight back to the pool. *)
      Device.write_slice t.dev ~off (Slice.of_bytes data))

(* --- mount / recovery (FFS) --- *)

exception Mount_error of string

let mount_error fmt = Printf.ksprintf (fun s -> raise (Mount_error s)) fmt

(* (seq, cursor, slot, files) of a valid non-overflow snapshot. *)
let parse_snapshot buf ~slot =
  let len = Bytes.length buf in
  if len < snap_header + 8 then None
  else if Wire.get_u32 buf 0 <> snap_magic then None
  else
    let content_len = Wire.get_u32 buf 24 in
    if content_len < snap_header || content_len + 8 > len then None
    else if
      Wire.get_u64 buf content_len
      <> Wire.checksum buf ~pos:0 ~len:content_len
    then None
    else if Wire.get_u32 buf 4 land snap_flag_overflow <> 0 then None
    else begin
      let nfiles = Wire.get_u32 buf 16 in
      let pos = ref snap_header in
      let files = ref [] in
      (try
         for _ = 1 to nfiles do
           let name_len = Wire.get_u16 buf !pos in
           let name = Bytes.sub_string buf (!pos + 2) name_len in
           let p = !pos + 2 + name_len in
           let size = Wire.get_u64 buf p in
           let nexts = Wire.get_u32 buf (p + 8) in
           let exts =
             List.init nexts (fun i ->
                 let q = p + 12 + (i * 12) in
                 (Wire.get_u32 buf q, Wire.get_u32 buf (q + 4),
                  Wire.get_u32 buf (q + 8)))
           in
           files := (name, size, exts) :: !files;
           pos := p + 12 + (nexts * 12)
         done
       with Invalid_argument _ -> files := []);
      Some
        (Wire.get_u64 buf 8, Wire.get_u32 buf 20, slot, List.rev !files)
    end

type commit_rec = {
  jc_seq : int;
  jc_block : int; (* device block holding the record *)
  jc_name : string;
  jc_size : int;
  jc_maps : (int * int) list option; (* None = overflow marker *)
}

let parse_commit buf ~pos ~block =
  if Wire.get_u32 buf pos <> commit_magic then None
  else if
    Wire.get_u64 buf (pos + commit_cksum_off)
    <> Wire.checksum buf ~pos ~len:commit_cksum_off
  then None
  else begin
    let nmaps = Wire.get_u32 buf (pos + 4) in
    let name_len = Wire.get_u16 buf (pos + 24) in
    if name_len > commit_name_max then None
    else
      let maps =
        if nmaps = commit_overflow then None
        else
          Some
            (List.init nmaps (fun i ->
                 let q = pos + commit_maps_off + (i * 8) in
                 (Wire.get_u32 buf q, Wire.get_u32 buf (q + 4))))
      in
      Some
        {
          jc_seq = Wire.get_u64 buf (pos + 8);
          jc_block = block;
          jc_name = Bytes.sub_string buf (pos + 26) name_len;
          jc_size = Wire.get_u64 buf (pos + 16);
          jc_maps = maps;
        }
  end

(* [read_pooled dev ~off ~len f] reads [len] bytes at [off] into a pooled
   buffer and parses it with [f], which must copy out what it keeps. The
   buffer goes back to the pool afterwards; if the read raises, it is
   lost to the pool (a leak, never a corruption). *)
let read_pooled dev ~off ~len f =
  let buf = Pool.alloc len in
  Device.read_into dev ~off (Slice.of_bytes buf);
  let r = f buf in
  Pool.recycle buf;
  r

(* Mount an FFS image: newest intact metadata snapshot, plus the replay
   of every committed journal transaction younger than it. Fails loudly
   ([Mount_error]) when acknowledged transactions cannot be
   reconstructed — a seq gap (ring wrap past un-snapshotted commits) or
   an overflow commit record in the replay range. A blank device mounts
   as an empty file system. *)
let mount dev ~kind =
  if kind <> Ffs then invalid_arg "Fs.mount: recovery is FFS-only";
  Sched.cpu (Costs.syscall + Costs.vfs_call);
  let t = mkfs dev ~kind in
  let step = t.bs / dev_bs in
  (* Newest usable snapshot from the two slots (slot 0 may legacy-spill
     past slot 1's blocks, so read its full possible extent). *)
  let snap =
    let s0 =
      read_pooled dev ~off:dev_bs ~len:((meta_blocks - 1) * dev_bs)
        (parse_snapshot ~slot:0)
    in
    let s1 =
      read_pooled dev ~off:(32 * dev_bs) ~len:(32 * dev_bs)
        (parse_snapshot ~slot:1)
    in
    match (s0, s1) with
    | None, s | s, None -> s
    | Some ((q0, _, _, _) as a), Some ((q1, _, _, _) as b) ->
      Some (if q0 > q1 then a else b)
  in
  let snap_seq, snap_cursor, snap_slot =
    match snap with
    | None -> (0, meta_blocks, None)
    | Some (seq, cursor, slot, files) ->
      List.iter
        (fun (name, size, exts) ->
          let f = open_file t name in
          f.f_size <- size;
          List.iter
            (fun (idx, first, count) ->
              for k = 0 to count - 1 do
                Hashtbl.replace f.f_blocks (idx + k) (first + (k * step));
                for j = 0 to step - 1 do
                  Balloc.mark_allocated t.alloc (first + (k * step) + j)
                done
              done)
            exts)
        files;
      (seq, cursor, Some slot)
  in
  (* Scan the whole ring for intact commit records. *)
  let records = ref [] in
  read_pooled dev ~off:(meta_blocks * dev_bs) ~len:(journal_blocks * dev_bs)
    (fun jbuf ->
      for b = 0 to journal_blocks - 1 do
        match parse_commit jbuf ~pos:(b * dev_bs) ~block:(meta_blocks + b) with
        | Some r -> records := r :: !records
        | None -> ()
      done);
  let newer =
    List.sort
      (fun a b -> compare a.jc_seq b.jc_seq)
      (List.filter (fun r -> r.jc_seq > snap_seq) !records)
  in
  (* Acked transactions must replay completely and in order. *)
  let expect = ref (snap_seq + 1) in
  List.iter
    (fun r ->
      if r.jc_seq <> !expect then
        mount_error "journal gap: expected txn %d, found %d (snapshot at %d)"
          !expect r.jc_seq snap_seq;
      incr expect;
      match r.jc_maps with
      | None ->
        mount_error "journal txn %d overflowed its commit record" r.jc_seq
      | Some maps ->
        let f = open_file t r.jc_name in
        f.f_size <- r.jc_size;
        List.iter
          (fun (idx, first) ->
            Hashtbl.replace f.f_blocks idx first;
            for j = 0 to step - 1 do
              Balloc.mark_allocated t.alloc (first + j)
            done)
          maps)
    newer;
  (match List.rev newer with
  | last :: _ ->
    t.txn_seq <- last.jc_seq;
    t.journal_cursor <- last.jc_block + 1
  | [] ->
    t.txn_seq <- snap_seq;
    t.journal_cursor <-
      (if snap_cursor >= meta_blocks && snap_cursor <= meta_blocks + journal_blocks
       then snap_cursor
       else meta_blocks));
  (match snap_slot with
  | Some slot -> t.meta_slot <- 1 - slot
  | None -> t.meta_slot <- 0);
  (* What a block's last writeback put on the device is not recorded;
     the used prefix of the recovered size stands in for it. *)
  Hashtbl.iter
    (fun _ f ->
      Hashtbl.iter
        (fun idx _ -> Hashtbl.replace f.f_wlen idx (used_len t f idx))
        f.f_blocks)
    t.files;
  t

(* End-of-run teardown: every cache block and the zero scratch go back to
   the buffer pool. The filesystem must never be used again. *)
let dispose t =
  Hashtbl.iter
    (fun _ f -> Hashtbl.iter (fun _ cb -> discard_block cb) f.f_cache)
    t.files;
  Hashtbl.reset t.files;
  t.lru.cb_prev <- t.lru;
  t.lru.cb_next <- t.lru;
  t.cached_count <- 0;
  Pool.recycle t.scratch_zeros;
  t.scratch_zeros <- Bytes.empty;
  Pool.recycle t.scratch_journal;
  t.scratch_journal <- Bytes.empty

let debug_blocks _t f = Hashtbl.fold (fun idx first acc -> (idx, first) :: acc) f.f_blocks []
