module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
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
  let dev =
    Device.of_stripe
    (Stripe.create [ Disk.create ~name:"d0" ~size:(Size.mib mib) ();
        Disk.create ~name:"d1" ~size:(Size.mib mib) () ])
  in
  Fs.mkfs dev ~kind

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
      let fs = mk_fs ~kind () in
      let f = Fs.open_file fs "durable" in
      Fs.write fs f ~off:0 (Bytes.make 8192 'D');
      let before = Fs.bytes_written_to_disk fs in
      Fs.fsync fs f;
      checkb "io happened" true (Fs.bytes_written_to_disk fs > before);
      (* Clean after fsync: another fsync writes nothing. *)
      let mid = Fs.bytes_written_to_disk fs in
      Fs.fsync fs f;
      checki "no new data io" mid (Fs.bytes_written_to_disk fs))
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
      let fs = mk_fs () in
      let f = Fs.open_file fs "mapped" in
      let phys = Phys.create () in
      let a = Aspace.create phys in
      ignore (Fs.mmap fs f a ~va:0x7000_0000 ~len:(Size.kib 16));
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "one");
      Fs.msync fs f;
      let io1 = Fs.bytes_written_to_disk fs in
      (* Nothing dirty: msync writes nothing new. *)
      Fs.msync fs f;
      checki "clean msync" io1 (Fs.bytes_written_to_disk fs);
      (* Dirty again after re-protection: tracked and flushed. *)
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "two");
      Fs.msync fs f;
      checkb "re-tracked" true (Fs.bytes_written_to_disk fs > io1);
      checks "content" "two" (Bytes.to_string (Fs.read fs f ~off:0 ~len:3)))
    ()

let test_zfs_cow_allocates_fresh () =
  in_sim (fun () ->
      let fs = mk_fs ~kind:Fs.Zfs () in
      let f = Fs.open_file fs "cow" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'a');
      Fs.fsync fs f;
      let w1 = Fs.bytes_written_to_disk fs in
      Fs.write fs f ~off:0 (Bytes.make 4096 'b');
      Fs.fsync fs f;
      (* COW rewrites the record somewhere new; data still correct. *)
      checkb "second sync wrote" true (Fs.bytes_written_to_disk fs > w1);
      checks "content" "b" (Bytes.to_string (Fs.read fs f ~off:0 ~len:1)))
    ()

let test_sync_meta_writes () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "meta-test" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'm');
      Fs.fsync fs f;
      let before = Fs.bytes_written_to_disk fs in
      Fs.sync_meta fs;
      checkb "metadata flushed to device" true (Fs.bytes_written_to_disk fs > before))
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

(* Mount scans both snapshot slots and the whole journal ring; the scan
   buffers come from the pool and all go back to it. *)
let test_mount_recycles_scan_buffers () =
  in_sim (fun () ->
      let dev =
        Device.of_stripe
          (Stripe.create [ Disk.create ~name:"d0" ~size:(Size.mib 64) ();
              Disk.create ~name:"d1" ~size:(Size.mib 64) () ])
      in
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
          tc "remove" test_remove;
          tc "resident scan" test_resident_scan_cost_grows;
          tc "sync_meta" test_sync_meta_writes;
          QCheck_alcotest.to_alcotest prop_meta_length;
          tc "mount recycles scan buffers" test_mount_recycles_scan_buffers;
        ] );
      ( "zfs",
        [
          tc "roundtrip" (test_write_read_roundtrip Fs.Zfs);
          tc "fsync persists" (test_fsync_persists_to_device Fs.Zfs);
          tc "random slower" (test_random_slower_than_seq Fs.Zfs);
          tc "cow fresh blocks" test_zfs_cow_allocates_fresh;
        ] );
      ( "mmap",
        [
          tc "read/write" test_mmap_read_write;
          tc "msync retracks" test_msync_retracks;
        ] );
    ]
