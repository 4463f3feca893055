module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Fs = Msnap_fs.Fs

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let in_sim f () = Sched.run f

let mk_fs ?(kind = Fs.Ffs) ?(mib = 64) () =
  Fs.mkfs (Device.testbed ~mib) ~kind

(* Bytes the device has committed, over its members. *)
let disk_bytes dev = (Device.stats dev).Disk.bytes_written

let fs_block_of = function Fs.Ffs -> 32 * 1024 | Fs.Zfs -> 128 * 1024

let test_write_read_roundtrip kind () =
  in_sim (fun () ->
      let fs = mk_fs ~kind () in
      let f = Fs.open_file fs "file" in
      Fs.write fs f ~off:1000 (Bytes.of_string "hello fs");
      checks "roundtrip" "hello fs"
        (Bytes.to_string (Fs.read fs f ~off:1000 ~len:8));
      checki "size" 1008 (Fs.size fs f))
    ()

let test_holes_read_zero () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "sparse" in
      Fs.write fs f ~off:(Size.mib 1) (Bytes.of_string "tail");
      let hole = Fs.read fs f ~off:0 ~len:16 in
      checkb "zeros" true (Bytes.for_all (fun c -> c = '\000') hole))
    ()

let test_fsync_persists_to_device kind () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind in
      let f = Fs.open_file fs "durable" in
      Fs.write fs f ~off:0 (Bytes.make 8192 'D');
      let before = disk_bytes dev in
      Fs.fsync fs f;
      checkb "io happened" true (disk_bytes dev > before);
      (* Clean after fsync: another fsync writes nothing. *)
      let mid = disk_bytes dev in
      Fs.fsync fs f;
      checki "no new data io" mid (disk_bytes dev))
    ()

let test_read_back_after_eviction () =
  in_sim (fun () ->
      let fs = mk_fs () in
      Fs.set_cache_capacity fs 4;
      let f = Fs.open_file fs "big" in
      let rng = Rng.create 9 in
      let chunk = Rng.bytes rng (Fs.fs_block_size fs) in
      (* Fill 8 fs-blocks (twice the cache), fsync, then read the first
         back: it must come from the device, not the cache. *)
      for i = 0 to 7 do
        Fs.write fs f ~off:(i * Fs.fs_block_size fs) chunk;
        Fs.fsync fs f
      done;
      checkb "evicted" true (Fs.resident_blocks fs f < 8);
      let back = Fs.read fs f ~off:0 ~len:(Fs.fs_block_size fs) in
      checkb "device copy correct" true (Bytes.equal chunk back))
    ()

let test_rmw_on_uncached_partial_write () =
  in_sim (fun () ->
      let fs = mk_fs () in
      Fs.set_cache_capacity fs 2;
      let f = Fs.open_file fs "rmw" in
      let bs = Fs.fs_block_size fs in
      (* Write 8 full blocks, fsync, evict. *)
      for i = 0 to 7 do
        Fs.write fs f ~off:(i * bs) (Bytes.make bs 'A')
      done;
      Fs.fsync fs f;
      let rmw0 = Fs.rmw_reads fs in
      (* Sub-block write to an evicted block: read-modify-write. *)
      Fs.write fs f ~off:0 (Bytes.of_string "B");
      checkb "rmw read charged" true (Fs.rmw_reads fs > rmw0);
      Fs.fsync fs f;
      (* Old contents preserved around the small write. *)
      let back = Fs.read fs f ~off:0 ~len:4 in
      checks "merged" "BAAA" (Bytes.to_string back))
    ()

let test_random_slower_than_seq kind () =
  in_sim (fun () ->
      (* The Table 6 effect: N random 4 KiB page writes + fsync cost much
         more than the same bytes written sequentially. *)
      let fs = mk_fs ~kind ~mib:256 () in
      Fs.set_cache_capacity fs 8;
      let f = Fs.open_file fs "bench" in
      let bs = Fs.fs_block_size fs in
      (* Preallocate a 64 MiB file. *)
      let prealloc = Bytes.make bs 'P' in
      for i = 0 to (Size.mib 64 / bs) - 1 do
        Fs.write fs f ~off:(i * bs) prealloc;
        if i mod 8 = 7 then Fs.fsync fs f
      done;
      Fs.fsync fs f;
      let rng = Rng.create 4 in
      let page = Bytes.make 4096 'x' in
      let t0 = Sched.now () in
      for i = 0 to 15 do
        Fs.write fs f ~off:(i * 4096) page
      done;
      Fs.fsync fs f;
      let seq = Sched.now () - t0 in
      let t1 = Sched.now () in
      for _ = 0 to 15 do
        let blk = Rng.int rng (Size.mib 64 / 4096) in
        Fs.write fs f ~off:(blk * 4096) page
      done;
      Fs.fsync fs f;
      let random = Sched.now () - t1 in
      checkb
        (Printf.sprintf "random (%d) slower than seq (%d)" random seq)
        true
        (random > 3 * seq))
    ()

let test_truncate () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "t" in
      Fs.write fs f ~off:0 (Bytes.make (Size.kib 100) 'T');
      Fs.fsync fs f;
      Fs.truncate fs f 10;
      checki "size" 10 (Fs.size fs f);
      Fs.write fs f ~off:0 (Bytes.of_string "z");
      Fs.fsync fs f;
      let back = Fs.read fs f ~off:0 ~len:10 in
      checks "kept prefix" "zTTTTTTTTT" (Bytes.to_string back))
    ()

(* After ftruncate(2), an extending write exposes zeros between the new
   EOF and itself, not the bytes the truncate cut off. [cached = false]
   evicts the tail block first, so the truncate must fetch it. *)
let test_truncate_zeroes_tail ~cached () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      let f = Fs.open_file fs "t" in
      Fs.write fs f ~off:0 (Bytes.make 100 'A');
      if not cached then Fs.set_cache_capacity fs 0;
      Fs.fsync fs f;
      checki "resident" (if cached then 1 else 0) (Fs.resident_blocks fs f);
      Fs.truncate fs f 10;
      Fs.write fs f ~off:50 (Bytes.of_string "Z");
      let want = String.make 10 'A' ^ String.make 40 '\000' ^ "Z" in
      checks "cached" want (Bytes.to_string (Fs.read fs f ~off:0 ~len:51));
      Fs.fsync fs f;
      checks "after fsync" want (Bytes.to_string (Fs.read fs f ~off:0 ~len:51));
      let fs2 = Fs.mount dev ~kind:Fs.Ffs in
      let f2 = Fs.open_file fs2 "t" in
      checki "mounted size" 51 (Fs.size fs2 f2);
      checks "after mount" want (Bytes.to_string (Fs.read fs2 f2 ~off:0 ~len:51)))
    ()

(* A block re-read from the device holds only what its last writeback
   put there. FFS writes a tail block's used prefix in place, over the
   bytes of an earlier, longer writeback; ZFS writes a fresh run, which
   may be one a removed file left full of 'A'. Past that prefix the
   block must read as zeros, even once the file has grown past it. *)
let test_reread_after_short_writeback kind () =
  in_sim (fun () ->
      let bs = fs_block_of kind in
      let f, fs =
        match kind with
        | Fs.Ffs ->
          (* A full block of 'A', truncated to 100 bytes, then the file
             grows, with a cache of two blocks. *)
          let fs = Fs.mkfs (Device.testbed ~mib:64) ~kind in
          Fs.set_cache_capacity fs 2;
          let f = Fs.open_file fs "f" in
          Fs.write fs f ~off:0 (Bytes.make bs 'A');
          Fs.fsync fs f;
          Fs.truncate fs f 100;
          Fs.fsync fs f;
          Fs.write fs f ~off:bs (Bytes.make (3 * bs) 'B');
          Fs.fsync fs f;
          (f, fs)
        | Fs.Zfs ->
          (* Room for two runs past the reserved area, plus indirect
             blocks: the second file's runs wrap onto the first's. *)
          let dev =
            Device.of_disk
              (Disk.create ~size:((320 * 4096) + (2 * bs) + (4 * 4096)) ())
          in
          let fs = Fs.mkfs dev ~kind in
          let old = Fs.open_file fs "old" in
          Fs.write fs old ~off:0 (Bytes.make (2 * bs) 'A');
          Fs.fsync fs old;
          Fs.remove fs "old";
          Fs.set_cache_capacity fs 0;
          let f = Fs.open_file fs "f" in
          Fs.write fs f ~off:0 (Bytes.make 100 'b');
          Fs.fsync fs f;
          Fs.write fs f ~off:bs (Bytes.make 100 'B');
          Fs.fsync fs f;
          (f, fs)
      in
      checks "past the writeback prefix" (String.make 8 '\000')
        (Bytes.to_string (Fs.read fs f ~off:4096 ~len:8)))
    ()

let test_remove () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "gone" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'g');
      Fs.fsync fs f;
      checkb "exists" true (Fs.exists fs "gone");
      Fs.remove fs "gone";
      checkb "removed" false (Fs.exists fs "gone"))
    ()

let test_resident_scan_cost_grows () =
  in_sim (fun () ->
      (* Fig. 5's baseline effect: fsync of one dirty page costs more when
         the file has a large resident set. *)
      let fs = mk_fs ~mib:256 () in
      let cost_with_resident blocks =
        let f = Fs.open_file fs (Printf.sprintf "f%d" blocks) in
        let bs = Fs.fs_block_size fs in
        for i = 0 to blocks - 1 do
          Fs.write fs f ~off:(i * bs) (Bytes.make bs 'r')
        done;
        Fs.fsync fs f;
        Fs.write fs f ~off:0 (Bytes.of_string "d");
        let t0 = Sched.now () in
        Fs.fsync fs f;
        Sched.now () - t0
      in
      let small = cost_with_resident 8 in
      let large = cost_with_resident 1024 in
      checkb "scan cost grows with residency" true (large > small))
    ()

let test_mmap_read_write () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "mapped" in
      Fs.write fs f ~off:0 (Bytes.of_string "disk data!");
      Fs.fsync fs f;
      let phys = Phys.create () in
      let a = Aspace.create phys in
      ignore (Fs.mmap fs f a ~va:0x7000_0000 ~len:(Size.kib 16));
      (* Reads see file contents. *)
      checks "page-in" "disk data!"
        (Bytes.to_string (Aspace.read a ~va:0x7000_0000 ~len:10));
      (* Writes through the mapping reach the file after msync. *)
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "MMAP");
      Fs.msync fs f;
      checks "msync wrote through" "MMAP data!"
        (Bytes.to_string (Fs.read fs f ~off:0 ~len:10)))
    ()

let test_msync_retracks () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      let f = Fs.open_file fs "mapped" in
      let phys = Phys.create () in
      let a = Aspace.create phys in
      ignore (Fs.mmap fs f a ~va:0x7000_0000 ~len:(Size.kib 16));
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "one");
      Fs.msync fs f;
      let io1 = disk_bytes dev in
      (* Nothing dirty: msync writes nothing new. *)
      Fs.msync fs f;
      checki "clean msync" io1 (disk_bytes dev);
      (* Dirty again after re-protection: tracked and flushed. *)
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "two");
      Fs.msync fs f;
      checkb "re-tracked" true (disk_bytes dev > io1);
      checks "content" "two" (Bytes.to_string (Fs.read fs f ~off:0 ~len:3)))
    ()

let test_zfs_cow_allocates_fresh () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind:Fs.Zfs in
      let f = Fs.open_file fs "cow" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'a');
      Fs.fsync fs f;
      let w1 = disk_bytes dev in
      Fs.write fs f ~off:0 (Bytes.make 4096 'b');
      Fs.fsync fs f;
      (* COW rewrites the record somewhere new; data still correct. *)
      checkb "second sync wrote" true (disk_bytes dev > w1);
      checks "content" "b" (Bytes.to_string (Fs.read fs f ~off:0 ~len:1)))
    ()

let test_sync_meta_writes () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      let f = Fs.open_file fs "meta-test" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'm');
      Fs.fsync fs f;
      let before = disk_bytes dev in
      Fs.sync_meta fs;
      checkb "metadata flushed to device" true (disk_bytes dev > before))
    ()

(* The construction [sync_meta] used to size its snapshot IO (one
   [sprintf] per block mapping), kept as the reference for the digit
   arithmetic of [Fs.meta_text_length]. *)
let legacy_meta_length fs files =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, f) ->
      Buffer.add_string buf name;
      Buffer.add_string buf (string_of_int (Fs.size fs f));
      List.iter
        (fun (idx, first) -> Buffer.add_string buf (Printf.sprintf "%d:%d" idx first))
        (Fs.debug_blocks fs f))
    files;
  Buffer.length buf

let prop_meta_length =
  let open QCheck.Gen in
  (* Values on both sides of each digit-count step, and anything else. *)
  let number hi =
    frequency
      [ (2, map (fun k -> int_of_float (10. ** float_of_int k)) (int_range 0 12));
        (2, map (fun k -> int_of_float (10. ** float_of_int k) - 1) (int_range 1 12));
        (3, int_range 0 hi) ]
  in
  let file =
    triple
      (string_size ~gen:printable (int_range 1 24))
      (list_size (int_range 0 6) (map (fun n -> min n 99_999) (number 99_999)))
      (opt (number 1_000_000_000))
  in
  let print (files, removed) =
    Printf.sprintf "files %s, removed %d"
      (String.concat "; "
         (List.map
            (fun (name, idxs, size) ->
              Printf.sprintf "%S blocks [%s] size %s" name
                (String.concat "," (List.map string_of_int idxs))
                (match size with Some n -> string_of_int n | None -> "-"))
            files))
      removed
  in
  QCheck.Test.make ~count:100 ~name:"sync_meta IO size = legacy text length"
    (QCheck.make ~print (pair (list_size (int_range 0 6) file) (int_range 0 6)))
    (fun (files, removed) ->
      Sched.run (fun () ->
          let fs = mk_fs () in
          let bs = Fs.fs_block_size fs in
          let opened =
            List.fold_left
              (fun acc (name, idxs, size) ->
                let f = Fs.open_file fs name in
                List.iter (fun i -> Fs.write fs f ~off:(i * bs) (Bytes.make 1 'b')) idxs;
                Fs.fsync fs f;
                Option.iter (Fs.truncate fs f) size;
                (name, f) :: List.remove_assoc name acc)
              [] files
          in
          let opened =
            match List.nth_opt opened removed with
            | Some (name, _) ->
              Fs.remove fs name;
              List.remove_assoc name opened
            | None -> opened
          in
          Fs.meta_text_length fs = legacy_meta_length fs opened))

(* --- buffer-cache eviction order against a pure LRU model --- *)

(* Ops on file [f] of 2-3; truncates keep whole blocks, so no tail block
   is touched and the model needs no truncate-time read. *)
type cache_op =
  | Cwrite of int * int * int (* file, off, len *)
  | Cread of int * int * int
  | Cfsync of int
  | Ctruncate of int * int (* file, kept blocks *)
  | Cremove of int

let cache_op_to_string = function
  | Cwrite (f, off, len) -> Printf.sprintf "write f%d %d+%d" f off len
  | Cread (f, off, len) -> Printf.sprintf "read f%d %d+%d" f off len
  | Cfsync f -> Printf.sprintf "fsync f%d" f
  | Ctruncate (f, n) -> Printf.sprintf "truncate f%d %d blocks" f n
  | Cremove f -> Printf.sprintf "remove f%d" f

(* The policy as a specification: one global recency order, touched on
   every lookup; a miss inserts the block as most recent, then evicts the
   least recently touched clean blocks until the cache fits, never the
   block just inserted. A miss that must merge into an on-disk block
   counts one read-modify-write read. *)
module Lru_model = struct
  type t = {
    cap : int;
    bs : int;
    mutable order : (int * int) list; (* (file, idx), least recent first *)
    dirty : (int * int, unit) Hashtbl.t;
    on_disk : (int * int, unit) Hashtbl.t;
    mutable rmw : int;
    mutable scanned_pages : int; (* resident pages fsync has scanned *)
  }

  let create ~cap ~bs =
    { cap; bs; order = []; dirty = Hashtbl.create 16;
      on_disk = Hashtbl.create 16; rmw = 0; scanned_pages = 0 }

  let resident m f = List.length (List.filter (fun (g, _) -> g = f) m.order)

  let evict ?keep m =
    let excess = ref (List.length m.order - m.cap) in
    m.order <-
      List.filter
        (fun k ->
          if !excess > 0 && (not (Hashtbl.mem m.dirty k)) && Some k <> keep
          then (decr excess; false)
          else true)
        m.order

  let get m k ~need_old =
    if List.mem k m.order then m.order <- List.filter (( <> ) k) m.order @ [ k ]
    else begin
      if need_old && Hashtbl.mem m.on_disk k then m.rmw <- m.rmw + 1;
      m.order <- m.order @ [ k ];
      evict ~keep:k m
    end

  let chunks m ~off ~len fn =
    let rec go off rem =
      if rem > 0 then begin
        let idx = off / m.bs and within = off mod m.bs in
        let n = min rem (m.bs - within) in
        fn idx (within = 0 && n = m.bs);
        go (off + n) (rem - n)
      end
    in
    go off len

  let drop m keep_k =
    m.order <- List.filter keep_k m.order;
    let filter tbl =
      Hashtbl.filter_map_inplace (fun k () -> if keep_k k then Some () else None) tbl
    in
    filter m.dirty;
    filter m.on_disk

  let step m = function
    | Cwrite (f, off, len) ->
      chunks m ~off ~len (fun idx whole ->
          get m (f, idx) ~need_old:(not whole);
          Hashtbl.replace m.dirty (f, idx) ())
    | Cread (f, off, len) ->
      chunks m ~off ~len (fun idx _ ->
          let k = (f, idx) in
          if List.mem k m.order || Hashtbl.mem m.on_disk k then get m k ~need_old:true)
    | Cfsync f ->
      m.scanned_pages <- m.scanned_pages + (resident m f * (m.bs / 4096));
      List.iter
        (fun ((g, _) as k) ->
          if g = f && Hashtbl.mem m.dirty k then begin
            Hashtbl.remove m.dirty k;
            Hashtbl.replace m.on_disk k ()
          end)
        m.order;
      evict m
    | Ctruncate (f, n) -> drop m (fun (g, idx) -> g <> f || idx < n)
    | Cremove f -> drop m (fun (g, _) -> g <> f)
end

(* One run of [ops] on a fresh single-disk file system: after each step,
   the per-file resident counts, the RMW-read total and the clock. *)
let run_cache_ops ~kind ~cap ~nfiles ops =
  Sched.run (fun () ->
      let fs = Fs.mkfs (Device.of_disk (Disk.create ~size:(Size.mib 16) ())) ~kind in
      Fs.set_cache_capacity fs cap;
      let name f = Printf.sprintf "f%d" f in
      let payload = Bytes.make (2 * Fs.fs_block_size fs) 'p' in
      List.map
        (fun op ->
          (match op with
          | Cwrite (f, off, len) ->
            Fs.write fs (Fs.open_file fs (name f)) ~off (Bytes.sub payload 0 len)
          | Cread (f, off, len) -> ignore (Fs.read fs (Fs.open_file fs (name f)) ~off ~len)
          | Cfsync f -> Fs.fsync fs (Fs.open_file fs (name f))
          | Ctruncate (f, n) ->
            Fs.truncate fs (Fs.open_file fs (name f)) (n * Fs.fs_block_size fs)
          | Cremove f -> Fs.remove fs (name f));
          ( List.init nfiles (fun f -> Fs.resident_blocks fs (Fs.open_file fs (name f))),
            Fs.rmw_reads fs,
            Sched.now () ))
        ops)

let prop_eviction_order =
  let open QCheck.Gen in
  let gen =
    oneofl [ Fs.Ffs; Fs.Zfs ] >>= fun kind ->
    let bs = fs_block_of kind in
    int_range 2 3 >>= fun nfiles ->
    int_range 2 4 >>= fun cap ->
    let file = int_range 0 (nfiles - 1) in
    let range =
      frequency
        [ (2, map (fun i -> (i * bs, bs)) (int_range 0 5));
          (3, pair (int_range 0 (6 * bs)) (int_range 1 (2 * bs))) ]
    in
    let op =
      frequency
        [ (5, map2 (fun f (off, len) -> Cwrite (f, off, len)) file range);
          (4, map2 (fun f (off, len) -> Cread (f, off, len)) file range);
          (3, map (fun f -> Cfsync f) file);
          (1, map2 (fun f n -> Ctruncate (f, n)) file (int_range 0 4));
          (1, map (fun f -> Cremove f) file) ]
    in
    list_size (int_range 1 40) op >|= fun ops -> (kind, nfiles, cap, ops)
  in
  let print (kind, nfiles, cap, ops) =
    Printf.sprintf "%s, %d files, capacity %d:\n  %s"
      (match kind with Fs.Ffs -> "ffs" | Fs.Zfs -> "zfs")
      nfiles cap
      (String.concat "\n  " (List.map cache_op_to_string ops))
  in
  QCheck.Test.make ~count:150 ~name:"eviction order matches LRU model"
    (QCheck.make ~print gen)
    (fun (kind, nfiles, cap, ops) ->
      let bs = fs_block_of kind in
      (* The clock is checked against an uncapped run of the same ops: the
         cache policy adds only RMW device reads and fsync's resident-page
         scan, both of which the model counts. *)
      let small = run_cache_ops ~kind ~cap ~nfiles ops in
      let big = run_cache_ops ~kind ~cap:max_int ~nfiles ops in
      let m = Lru_model.create ~cap ~bs and mb = Lru_model.create ~cap:max_int ~bs in
      let read_ns = Msnap_sim.Costs.(disk_base + disk_xfer bs) in
      List.for_all2
        (fun op ((res, rmw, now), (_, rmw_big, now_big)) ->
          Lru_model.step m op;
          Lru_model.step mb op;
          let want_res = List.init nfiles (Lru_model.resident m) in
          let want_now =
            now_big
            + ((m.rmw - mb.rmw) * read_ns)
            + ((m.scanned_pages - mb.scanned_pages)
               * Msnap_sim.Costs.fsync_resident_scan_per_page)
          in
          if res <> want_res || rmw <> m.rmw || rmw_big <> mb.rmw || now <> want_now
          then
            QCheck.Test.fail_reportf
              "after %s: resident [%s] (model [%s]), rmw %d (model %d), \
               uncapped rmw %d (model %d), now %d (model %d)"
              (cache_op_to_string op)
              (String.concat ";" (List.map string_of_int res))
              (String.concat ";" (List.map string_of_int want_res))
              rmw m.rmw rmw_big mb.rmw now want_now
          else true)
        ops (List.combine small big))

(* Two threads miss the same uncached block at once. A's sub-block write
   issues its read-modify-write read first; B's read of the block misses
   while A's read is in flight, so B's device read completes after A has
   cached the block and written into it. B must use A's block, not
   replace it with the older device copy. *)
let test_double_miss_keeps_first_block () =
  in_sim (fun () ->
      let dev = Device.of_disk (Disk.create ~size:(Size.mib 16) ()) in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      Fs.sync_meta fs;
      Fs.set_cache_capacity fs 1;
      let bs = Fs.fs_block_size fs in
      let f = Fs.open_file fs "raced" in
      Fs.write fs f ~off:0 (Bytes.make bs 'o');
      Fs.fsync fs f;
      Fs.write fs f ~off:bs (Bytes.make bs 'o');
      Fs.fsync fs f;
      Fs.set_cache_capacity fs 16;
      checki "block 0 evicted" 1 (Fs.resident_blocks fs f);
      let rmw0 = Fs.rmw_reads fs in
      let a =
        Sched.spawn (fun () -> Fs.write fs f ~off:100 (Bytes.of_string "AAAA"))
      in
      let b =
        Sched.spawn (fun () ->
            (* Past A's charges up to its device read, then miss too. *)
            Sched.delay
              Msnap_sim.Costs.(
                syscall + vfs_call + rangelock + buffer_cache_lookup);
            ignore (Fs.read fs f ~off:0 ~len:bs))
      in
      Sched.join a;
      Sched.join b;
      checki "both missed" (rmw0 + 2) (Fs.rmw_reads fs);
      let around fs f = Bytes.to_string (Fs.read fs f ~off:99 ~len:6) in
      checks "cached" "oAAAAo" (around fs f);
      Fs.fsync fs f;
      checks "after fsync" "oAAAAo" (around fs f);
      let fs2 = Fs.mount dev ~kind:Fs.Ffs in
      checks "after mount" "oAAAAo" (around fs2 (Fs.open_file fs2 "raced")))
    ()

(* A truncate that unmaps a block while a reader's miss is reading it
   from the device: the reader keeps what it read. *)
let test_truncate_during_miss () =
  in_sim (fun () ->
      let fs = mk_fs () in
      Fs.set_cache_capacity fs 0;
      let bs = Fs.fs_block_size fs in
      let f = Fs.open_file fs "raced" in
      Fs.write fs f ~off:0 (Bytes.make (2 * bs) 'o');
      Fs.fsync fs f;
      checki "evicted" 0 (Fs.resident_blocks fs f);
      let rmw0 = Fs.rmw_reads fs in
      let reader =
        Sched.spawn (fun () ->
            checks "read" "oooo" (Bytes.to_string (Fs.read fs f ~off:bs ~len:4)))
      in
      let truncator =
        Sched.spawn (fun () ->
            (* Past the reader's charges up to its device read. *)
            Sched.delay Msnap_sim.Costs.(syscall + vfs_call + buffer_cache_lookup);
            Fs.truncate fs f bs)
      in
      Sched.join reader;
      Sched.join truncator;
      checki "the reader missed" (rmw0 + 1) (Fs.rmw_reads fs);
      checki "truncated" bs (Fs.size fs f))
    ()

(* writev of a payload cut into slices must be indistinguishable from a
   write of the concatenation: contents, size, RMW reads, clock and the
   bytes fsync moves. Each slice views the middle of a larger buffer, and
   equal cut points make zero-length slices. *)
let prop_writev_split =
  let open QCheck.Gen in
  let gen =
    oneofl [ Fs.Ffs; Fs.Zfs ] >>= fun kind ->
    let bs = fs_block_of kind in
    oneofl [ 2; max_int ] >>= fun cap ->
    int_range 0 (4 * bs) >>= fun base ->
    int_range 0 (2 * bs) >>= fun off ->
    int_range 0 (3 * bs) >>= fun len ->
    int_range 0 3 >>= fun ncuts ->
    list_repeat ncuts (int_range 0 len) >>= fun cuts ->
    int >|= fun seed ->
    (kind, cap, base, off, len, List.sort compare cuts, seed)
  in
  let print (kind, cap, base, off, len, cuts, seed) =
    Printf.sprintf "%s cap %d, base %d, write %d at %d, cuts [%s], seed %d"
      (match kind with Fs.Ffs -> "ffs" | Fs.Zfs -> "zfs")
      cap base len off
      (String.concat ";" (List.map string_of_int cuts))
      seed
  in
  QCheck.Test.make ~count:100
    ~name:"writev of any split = write of the concatenation"
    (QCheck.make ~print gen)
    (fun (kind, cap, base, off, len, cuts, seed) ->
      let payload = Rng.bytes (Rng.create seed) len in
      let run write =
        Sched.run (fun () ->
            let dev = Device.of_disk (Disk.create ~size:(Size.mib 16) ()) in
            let fs = Fs.mkfs dev ~kind in
            let f = Fs.open_file fs "v" in
            Fs.write fs f ~off:0 (Bytes.make base 'b');
            Fs.fsync fs f;
            Fs.set_cache_capacity fs cap;
            write fs f;
            let after_write = (Fs.size fs f, Fs.rmw_reads fs, Sched.now ()) in
            let disk0 = disk_bytes dev in
            Fs.fsync fs f;
            ( Bytes.to_string (Fs.read fs f ~off:0 ~len:(Fs.size fs f)),
              after_write,
              disk_bytes dev - disk0,
              Sched.now () ))
      in
      let slice_of lo hi =
        (* [payload[lo..hi)] in the middle of a padded buffer. *)
        let pad = 1 + (lo mod 7) in
        let buf = Bytes.make (hi - lo + (2 * pad)) 'x' in
        Bytes.blit payload lo buf pad (hi - lo);
        Msnap_util.Slice.make buf ~pos:pad ~len:(hi - lo)
      in
      let rec slices lo = function
        | [] -> []
        | hi :: rest -> slice_of lo hi :: slices hi rest
      in
      run (fun fs f -> Fs.writev fs f ~off (slices 0 (cuts @ [ len ])))
      = run (fun fs f -> Fs.write fs f ~off payload))

(* The zero watermark: a fresh cache block is not zeroed when it enters
   the cache, only where no write lands. Random writes into fresh blocks
   (gaps, writes past EOF, whole-block and sub-block writes), reads,
   fsyncs, truncates and mmap page-ins must all see a flat zero-filled
   model file, and after every fsync each block's bytes on the disk, up
   to the length its last writeback lent the device, must equal the
   model as it was then. Every case starts by recycling block-sized
   buffers, which [debug_checks] poisons, so an unzeroed byte shows.
   The cache holds one block, two, or all of them: a block evicted and
   re-read from the disk, which holds only the prefix its last writeback
   wrote, must read as zeros past that prefix too. *)
type zero_op =
  | Zwrite of int * int * int (* off, len, seed *)
  | Zread of int * int
  | Zfsync
  | Ztruncate of int
  | Zpage_in of int (* page number *)

let zero_op_to_string = function
  | Zwrite (off, len, seed) -> Printf.sprintf "write %d at %d (seed %d)" len off seed
  | Zread (off, len) -> Printf.sprintf "read %d at %d" len off
  | Zfsync -> "fsync"
  | Ztruncate n -> Printf.sprintf "truncate %d" n
  | Zpage_in p -> Printf.sprintf "page-in %d" p

let prop_zero_watermark =
  let open QCheck.Gen in
  let gen =
    oneofl [ Fs.Ffs; Fs.Zfs ] >>= fun kind ->
    let bs = fs_block_of kind in
    let cap = 4 * bs in
    let write =
      oneof
        [
          (int_range 0 (cap - 300) >>= fun off -> int_range 1 300 >|= fun len -> (off, len));
          (int_range 0 (cap - bs) >>= fun off -> int_range 1 bs >|= fun len -> (off, len));
          (int_range 0 3 >|= fun k -> (k * bs, bs));
        ]
      >>= fun (off, len) -> int >|= fun seed -> Zwrite (off, len, seed)
    in
    let op =
      frequency
        [
          (5, write);
          (2, int_range 0 (cap - 1) >>= fun off ->
              int_range 0 (min bs (cap - off)) >|= fun len -> Zread (off, len));
          (2, return Zfsync);
          (1, int_range 0 cap >|= fun n -> Ztruncate n);
          (1, int_range 0 ((cap / 4096) - 1) >|= fun p -> Zpage_in p);
        ]
    in
    oneofl [ Some 1; Some 2; None ] >>= fun blocks ->
    list_size (int_range 1 30) op >|= fun ops -> (kind, blocks, ops)
  in
  let print (kind, blocks, ops) =
    Printf.sprintf "%s, cache %s: %s"
      (match kind with Fs.Ffs -> "ffs" | Fs.Zfs -> "zfs")
      (match blocks with Some n -> string_of_int n | None -> "unbounded")
      (String.concat "; " (List.map zero_op_to_string ops))
  in
  QCheck.Test.make ~count:150 ~name:"fresh blocks read as zeros where no write lands"
    (QCheck.make ~print gen)
    (fun (kind, blocks, ops) ->
      let module Pool = Msnap_util.Pool in
      let bs = fs_block_of kind in
      let cap = 4 * bs in
      List.iter Pool.recycle (List.init 4 (fun _ -> Pool.alloc bs));
      Sched.run (fun () ->
          let disk = Disk.create ~size:(Size.mib 16) () in
          let dev = Device.of_disk disk in
          let fs = Fs.mkfs dev ~kind in
          Option.iter (Fs.set_cache_capacity fs) blocks;
          let f = Fs.open_file fs "z" in
          let phys = Phys.create () in
          let aspace = Aspace.create phys in
          let model = Bytes.make cap '\000' and size = ref 0 in
          (* Blocks written and not dropped, blocks dirtied since the last
             fsync, and what each block's last writeback lent the device. *)
          let exists = Hashtbl.create 8 and dirty = Hashtbl.create 8 in
          let durable = Hashtbl.create 8 in
          let dirty_range off len =
            for idx = off / bs to (off + len - 1) / bs do
              Hashtbl.replace exists idx ();
              Hashtbl.replace dirty idx ()
            done
          in
          let used_len idx =
            let upto = min bs (!size - (idx * bs)) in
            if upto <= 0 then 0 else (upto + 4095) / 4096 * 4096
          in
          let fsync () =
            Fs.fsync fs f;
            Hashtbl.iter
              (fun idx () ->
                let len =
                  match kind with Fs.Ffs -> used_len idx | Fs.Zfs -> max 4096 (used_len idx)
                in
                if len > 0 then Hashtbl.replace durable idx (Bytes.sub model (idx * bs) len))
              dirty;
            Hashtbl.reset dirty;
            List.for_all
              (fun (idx, first) ->
                match Hashtbl.find_opt durable idx with
                | None -> true
                | Some image ->
                  Bytes.equal image (Disk.peek disk ~off:(first * 4096) ~len:(Bytes.length image)))
              (Fs.debug_blocks fs f)
          in
          let va = ref 0x1000_0000 in
          let step = function
            | Zwrite (off, len, seed) ->
              let payload = Rng.bytes (Rng.create seed) len in
              Fs.write fs f ~off payload;
              Bytes.blit payload 0 model off len;
              size := max !size (off + len);
              dirty_range off len;
              true
            | Zread (off, len) ->
              let buf = Bytes.make len 'Z' in
              Fs.read_into fs f ~off buf ~pos:0 ~len;
              Bytes.equal buf (Bytes.sub model off len)
            | Zfsync -> fsync ()
            | Ztruncate n ->
              Fs.truncate fs f n;
              if n < !size then begin
                Bytes.fill model n (cap - n) '\000';
                let keep = (n + bs - 1) / bs in
                if n mod bs <> 0 && Hashtbl.mem exists (n / bs) then
                  Hashtbl.replace dirty (n / bs) ();
                List.iter
                  (fun tbl ->
                    Hashtbl.filter_map_inplace (fun idx v -> if idx >= keep then None else Some v) tbl)
                  [ exists; dirty ];
                Hashtbl.filter_map_inplace
                  (fun idx v -> if idx >= keep then None else Some v)
                  durable
              end;
              size := n;
              true
            | Zpage_in p ->
              (* A fresh mapping per page-in: frames are not invalidated
                 by later writes. *)
              let base = !va in
              va := !va + cap;
              ignore (Fs.mmap fs f aspace ~va:base ~len:cap);
              Bytes.equal
                (Aspace.read aspace ~va:(base + (p * 4096)) ~len:4096)
                (Bytes.sub model (p * 4096) 4096)
          in
          let ok = List.for_all step ops && fsync () in
          let all = Bytes.make cap 'Z' in
          Fs.read_into fs f ~off:0 all ~pos:0 ~len:cap;
          Fs.dispose fs;
          Phys.dispose phys;
          Device.dispose dev;
          ok && Bytes.equal all model))

(* Mount scans both snapshot slots and the whole journal ring; the scan
   buffers come from the pool and all go back to it. *)
let test_mount_recycles_scan_buffers () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:64 in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      let f = Fs.open_file fs "kept" in
      Fs.write fs f ~off:0 (Bytes.make 5000 'k');
      Fs.fsync fs f;
      Fs.sync_meta fs;
      let module Pool = Msnap_util.Pool in
      let before = Pool.totals () in
      let fs2 = Fs.mount dev ~kind:Fs.Ffs in
      let after = Pool.totals () in
      checki "no buffer left outstanding" before.Pool.t_outstanding
        after.Pool.t_outstanding;
      checki "three scan buffers recycled" (before.Pool.t_recycles + 3)
        after.Pool.t_recycles;
      checki "file recovered" 5000 (Fs.size fs2 (Fs.open_file fs2 "kept")))
    ()

(* A power cut while an FFS fsync's writeback window is in flight
   reaches the fsync caller as its exception, whichever writeback
   thread the device failed under: the run itself never raises.
   Nothing is disposed (the cut leaves buffers mid-transfer). *)
let test_ffs_fsync_power_cut () =
  List.iter
    (fun cut_us ->
      let caught =
        Sched.run (fun () ->
            let dev = Device.testbed ~mib:64 in
            let fs = Fs.mkfs dev ~kind:Fs.Ffs in
            let f = Fs.open_file fs "f" in
            Fs.write fs f ~off:0 (Bytes.make (16 * 32 * 1024) 'x');
            let caught = ref false in
            let w =
              Sched.spawn (fun () ->
                  try Fs.fsync fs f with Disk.Powered_off -> caught := true)
            in
            Sched.delay (cut_us * 1000);
            Device.fail_power dev ~torn_seed:1;
            Sched.join w;
            !caught)
      in
      checkb (Printf.sprintf "cut at %d us reaches the caller" cut_us) true caught)
    [ 10; 30; 60; 100; 200; 300 ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fs"
    [
      ( "ffs",
        [
          tc "roundtrip" (test_write_read_roundtrip Fs.Ffs);
          tc "holes" test_holes_read_zero;
          tc "fsync persists" (test_fsync_persists_to_device Fs.Ffs);
          tc "eviction" test_read_back_after_eviction;
          tc "rmw" test_rmw_on_uncached_partial_write;
          tc "random slower" (test_random_slower_than_seq Fs.Ffs);
          tc "truncate" test_truncate;
          tc "truncate zeroes tail" (test_truncate_zeroes_tail ~cached:true);
          tc "truncate zeroes evicted tail" (test_truncate_zeroes_tail ~cached:false);
          tc "short writeback re-read reads zeros"
            (test_reread_after_short_writeback Fs.Ffs);
          tc "remove" test_remove;
          tc "resident scan" test_resident_scan_cost_grows;
          tc "sync_meta" test_sync_meta_writes;
          QCheck_alcotest.to_alcotest prop_meta_length;
          tc "mount recycles scan buffers" test_mount_recycles_scan_buffers;
          tc "double miss keeps first block" test_double_miss_keeps_first_block;
          tc "truncate during a miss" test_truncate_during_miss;
          tc "power cut mid-fsync reaches the caller" test_ffs_fsync_power_cut;
        ] );
      ("lru", [ QCheck_alcotest.to_alcotest prop_eviction_order ]);
      ("writev", [ QCheck_alcotest.to_alcotest prop_writev_split ]);
      ("zeros", [ QCheck_alcotest.to_alcotest prop_zero_watermark ]);
      ( "zfs",
        [
          tc "roundtrip" (test_write_read_roundtrip Fs.Zfs);
          tc "fsync persists" (test_fsync_persists_to_device Fs.Zfs);
          tc "random slower" (test_random_slower_than_seq Fs.Zfs);
          tc "cow fresh blocks" test_zfs_cow_allocates_fresh;
          tc "short writeback re-read reads zeros"
            (test_reread_after_short_writeback Fs.Zfs);
        ] );
      ( "mmap",
        [
          tc "read/write" test_mmap_read_write;
          tc "msync retracks" test_msync_retracks;
        ] );
    ]
