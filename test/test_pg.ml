module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Bufmgr = Msnap_pg.Bufmgr
module Storage = Msnap_pg.Storage
module Heap = Msnap_pg.Heap
module Pg = Msnap_pg.Pg
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))
let in_sim f () = Sched.run f

let ffs dev = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose)
let msnap dev = (Msnap.boot ~format:true dev, Msnap.dispose)

(* [f st] over every storage variant, each on its own machine. *)
let each_storage f =
  List.iter
    (fun with_storage -> in_dev ~mib:256 (fun dev -> with_storage dev f) ())
    [
      (fun dev f ->
        let& fs = ffs dev in
        f (Storage.ffs fs ()));
      (fun dev f ->
        let& fs = ffs dev in
        let& phys = (Phys.create (), Phys.dispose) in
        f (Storage.ffs_mmap fs (Aspace.create phys) ()));
      (fun dev f ->
        let& fs = ffs dev in
        let& phys = (Phys.create (), Phys.dispose) in
        f (Storage.ffs_mmap_bufdirect fs (Aspace.create phys) ()));
      (fun dev f ->
        let& k = msnap dev in
        f (Storage.memsnap k));
    ]

(* --- Bufmgr --- *)

let test_bufmgr_caching () =
  in_sim (fun () ->
      let reads = ref 0 and writes = ref 0 in
      let smgr =
        {
          Bufmgr.s_read = (fun ~rel:_ ~blockno:_ -> incr reads; Bytes.make Bufmgr.block_size '\000');
          s_write = (fun ~rel:_ ~blockno:_ _ -> incr writes);
          s_flush = (fun ~rel:_ -> ());
        }
      in
      let bm = Bufmgr.create ~nbuffers:4 smgr in
      let b = Bufmgr.read_buffer bm ~rel:"r" ~blockno:0 in
      Bytes.set b 0 'X';
      Bufmgr.mark_dirty bm ~rel:"r" ~blockno:0;
      ignore (Bufmgr.read_buffer bm ~rel:"r" ~blockno:0);
      checki "cached" 1 !reads;
      (* Fill past capacity: eviction must write back the dirty victim. *)
      for i = 1 to 8 do
        ignore (Bufmgr.read_buffer bm ~rel:"r" ~blockno:i)
      done;
      checkb "evictions happened" true (Bufmgr.resident bm <= 5);
      Bufmgr.flush_all bm;
      checki "dirty flushed" 0 (Bufmgr.dirty_count bm))
    ()

(* --- Heap over every storage variant --- *)

let test_heap_insert_fetch () =
  each_storage (fun st ->
      let h = Heap.create st ~rel:"t" in
      let tid1 = Heap.insert h ~xmin:5 "hello" in
      let tid2 = Heap.insert h ~xmin:6 "world" in
      (match Heap.fetch h tid1 with
      | Some (xmin, xmax, data) ->
        checki "xmin" 5 xmin;
        checki "xmax live" 0 xmax;
        Alcotest.(check string) "data" "hello" data
      | None -> Alcotest.fail "tuple lost");
      (match Heap.fetch h tid2 with
      | Some (_, _, data) -> Alcotest.(check string) "data2" "world" data
      | None -> Alcotest.fail "tuple lost");
      checkb "bad tid" true (Heap.fetch h (0, 99) = None);
      Heap.set_xmax h tid1 7;
      match Heap.fetch h tid1 with
      | Some (_, xmax, _) -> checki "xmax stamped" 7 xmax
      | None -> Alcotest.fail "tuple lost")

let test_heap_spills_blocks () =
  each_storage (fun st ->
      let h = Heap.create st ~rel:"big" in
      let data = String.make 1000 'd' in
      for i = 1 to 50 do
        ignore (Heap.insert h ~xmin:i data)
      done;
      checkb "multiple blocks" true (Heap.nblocks h > 1);
      let seen = ref 0 in
      for b = 0 to Heap.nblocks h - 1 do
        Heap.iter_block h b (fun _ _ _ d ->
            if d = data then incr seen)
      done;
      checki "all tuples" 50 !seen)

(* --- Pg transactions / MVCC --- *)

let test_pg_insert_lookup () =
  each_storage (fun st ->
      let db = Pg.open_db st in
      Pg.with_txn db (fun txn ->
          Pg.insert db txn ~table:"acct" ~key:"alice" "100");
      Pg.with_txn db (fun txn ->
          check_opt "committed visible" (Some "100")
            (Pg.lookup db txn ~table:"acct" ~key:"alice");
          check_opt "missing" None (Pg.lookup db txn ~table:"acct" ~key:"bob")))

let test_pg_update_versions () =
  each_storage (fun st ->
      let db = Pg.open_db st in
      Pg.with_txn db (fun txn -> Pg.insert db txn ~table:"acct" ~key:"a" "1");
      Pg.with_txn db (fun txn ->
          checkb "updated" true (Pg.update db txn ~table:"acct" ~key:"a" "2"));
      Pg.with_txn db (fun txn ->
          check_opt "newest version" (Some "2")
            (Pg.lookup db txn ~table:"acct" ~key:"a"));
      Pg.with_txn db (fun txn ->
          checkb "update missing row" false
            (Pg.update db txn ~table:"acct" ~key:"zzz" "x")))

let test_pg_own_writes_visible () =
  each_storage (fun st ->
      let db = Pg.open_db st in
      Pg.with_txn db (fun txn ->
          Pg.insert db txn ~table:"t" ~key:"k" "v";
          check_opt "own insert" (Some "v") (Pg.lookup db txn ~table:"t" ~key:"k");
          ignore (Pg.update db txn ~table:"t" ~key:"k" "v2");
          check_opt "own update" (Some "v2") (Pg.lookup db txn ~table:"t" ~key:"k")))

let test_pg_abort_invisible () =
  each_storage (fun st ->
      let db = Pg.open_db st in
      (try
         Pg.with_txn db (fun txn ->
             Pg.insert db txn ~table:"t" ~key:"doomed" "x";
             failwith "rollback")
       with Failure _ -> ());
      Pg.with_txn db (fun txn ->
          check_opt "aborted invisible" None
            (Pg.lookup db txn ~table:"t" ~key:"doomed")))

let test_pg_snapshot_isolation =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let db = Pg.open_db (Storage.memsnap k) in
      Pg.with_txn db (fun txn -> Pg.insert db txn ~table:"t" ~key:"k" "old");
      (* A long-running reader should not see a concurrent writer's commit
         made after the reader's snapshot. *)
      let observed = ref None in
      let reader_started = Msnap_sim.Sync.Ivar.create () in
      let writer_done = Msnap_sim.Sync.Ivar.create () in
      let reader =
        Sched.spawn (fun () ->
            Pg.with_txn db (fun txn ->
                Msnap_sim.Sync.Ivar.fill reader_started ();
                (* Wait until the writer commits. *)
                Msnap_sim.Sync.Ivar.read writer_done;
                observed := Pg.lookup db txn ~table:"t" ~key:"k"))
      in
      let writer =
        Sched.spawn (fun () ->
            Msnap_sim.Sync.Ivar.read reader_started;
            Pg.with_txn db (fun txn ->
                ignore (Pg.update db txn ~table:"t" ~key:"k" "new"));
            Msnap_sim.Sync.Ivar.fill writer_done ())
      in
      Sched.join writer;
      Sched.join reader;
      check_opt "snapshot-stable read" (Some "old") !observed;
      Pg.with_txn db (fun txn ->
          check_opt "later txn sees new" (Some "new")
            (Pg.lookup db txn ~table:"t" ~key:"k")))

let test_pg_row_locks_serialize =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let db = Pg.open_db (Storage.memsnap k) in
      Pg.with_txn db (fun txn -> Pg.insert db txn ~table:"t" ~key:"ctr" "0");
      let ts =
        List.init 8 (fun _ ->
            Sched.spawn (fun () ->
                for _ = 1 to 5 do
                  Pg.with_txn db (fun txn ->
                      ignore
                        (Pg.update_with db txn ~table:"t" ~key:"ctr"
                           (fun v -> string_of_int (int_of_string v + 1))))
                done))
      in
      List.iter Sched.join ts;
      Pg.with_txn db (fun txn ->
          check_opt "no lost updates" (Some "40")
            (Pg.lookup db txn ~table:"t" ~key:"ctr")))

let test_pg_wal_checkpointing =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      let st = Storage.ffs fs ~wal_checkpoint_bytes:(Size.kib 256) () in
      let db = Pg.open_db st in
      let data = String.make 200 'x' in
      for i = 0 to 599 do
        Pg.with_txn db (fun txn ->
            Pg.insert db txn ~table:"t" ~key:(string_of_int i) data)
      done;
      checkb "checkpoints ran" true (Msnap_sim.Metrics.count Msnap_sim.Probe.db_pg_checkpoint > 0);
      checkb "wal fsyncs per commit" true (Msnap_sim.Metrics.count Msnap_sim.Probe.db_fsync >= 600);
      (* Data still correct after checkpoints. *)
      Pg.with_txn db (fun txn ->
          check_opt "row survives" (Some data)
            (Pg.lookup db txn ~table:"t" ~key:"123")))

let test_pg_memsnap_no_wal =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let db = Pg.open_db (Storage.memsnap k) in
      for i = 0 to 49 do
        Pg.with_txn db (fun txn ->
            Pg.insert db txn ~table:"t" ~key:(string_of_int i) "v")
      done;
      checki "no wal writes" 0 (Msnap_sim.Metrics.count Msnap_sim.Probe.db_write);
      checki "no fsync" 0 (Msnap_sim.Metrics.count Msnap_sim.Probe.db_fsync);
      checkb "persists instead" true (Msnap_sim.Metrics.count Msnap_sim.Probe.db_memsnap >= 50))

let test_pg_write_amplification_gap () =
  Sched.run (fun () ->
      (* The Fig. 6 effect: baseline disk bytes (WAL + checkpoints) far
         exceed memsnap's (dirty pages only). *)
      let run dev st =
        let db = Pg.open_db st in
        let data = String.make 100 'x' in
        for i = 0 to 199 do
          Pg.with_txn db (fun txn ->
              Pg.insert db txn ~table:"t" ~key:(string_of_int (i mod 40)) data)
        done;
        (Device.stats dev).Disk.bytes_written
      in
      let base =
        let& dev = testbed ~mib:256 in
        let& fs = ffs dev in
        run dev (Storage.ffs fs ~wal_checkpoint_bytes:(Size.kib 512) ())
      in
      let ms =
        let& dev = testbed ~mib:256 in
        let& k = msnap dev in
        run dev (Storage.memsnap k)
      in
      checkb
        (Printf.sprintf "memsnap writes less (base=%d ms=%d)" base ms)
        true (ms * 2 < base))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "pg"
    [
      ("bufmgr", [ tc "caching/eviction" test_bufmgr_caching ]);
      ( "heap",
        [
          tc "insert/fetch (all variants)" (fun () -> test_heap_insert_fetch ());
          tc "spills blocks (all variants)" (fun () -> test_heap_spills_blocks ());
        ] );
      ( "mvcc",
        [
          tc "insert/lookup" (fun () -> test_pg_insert_lookup ());
          tc "update versions" (fun () -> test_pg_update_versions ());
          tc "own writes" (fun () -> test_pg_own_writes_visible ());
          tc "abort invisible" (fun () -> test_pg_abort_invisible ());
          tc "snapshot isolation" test_pg_snapshot_isolation;
          tc "row locks" test_pg_row_locks_serialize;
        ] );
      ( "persistence",
        [
          tc "wal checkpoints" test_pg_wal_checkpointing;
          tc "memsnap no wal" test_pg_memsnap_no_wal;
          tc "write amplification" test_pg_write_amplification_gap;
        ] );
    ]
