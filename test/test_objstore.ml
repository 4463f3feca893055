module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Layout = Msnap_objstore.Layout
module Radix = Msnap_objstore.Radix
module Store = Msnap_objstore.Store

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let in_sim f () = Sched.run f

let mk_dev ?(mib = 16) () = Device.testbed ~mib

let mk_store ?mib () =
  let dev = mk_dev ?mib () in
  Store.format dev;
  (dev, Store.mount dev)

let page c = Bytes.make 4096 c

(* A block whose contents spell [tag]: distinct tags, distinct blocks. *)
let tagged tag =
  let b = page '\000' in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  b

(* --- Layout --- *)

let test_layout_superblock () =
  let sb = { Layout.generation = 42; directory_block = 7; total_blocks = 100 } in
  match Layout.superblock_of_bytes (Layout.superblock_to_bytes sb) with
  | Some sb' ->
    checki "gen" 42 sb'.Layout.generation;
    checki "dir" 7 sb'.Layout.directory_block;
    checki "total" 100 sb'.Layout.total_blocks
  | None -> Alcotest.fail "roundtrip failed"

let test_layout_superblock_corrupt () =
  let b = Layout.superblock_to_bytes
      { Layout.generation = 1; directory_block = 0; total_blocks = 10 } in
  Bytes.set b 9 'X';
  checkb "detected" true (Layout.superblock_of_bytes b = None)

let test_layout_header () =
  let h =
    { Layout.obj_id = 3; obj_name = "region/db"; epoch = 17; root_block = 55;
      height = 2; size_bytes = 1 lsl 20; meta = 0xBEEF }
  in
  match Layout.header_of_bytes (Layout.header_to_bytes h) with
  | Some h' ->
    checks "name" "region/db" h'.Layout.obj_name;
    checki "epoch" 17 h'.Layout.epoch;
    checki "root" 55 h'.Layout.root_block;
    checki "height" 2 h'.Layout.height;
    checki "size" (1 lsl 20) h'.Layout.size_bytes;
    checki "meta" 0xBEEF h'.Layout.meta
  | None -> Alcotest.fail "roundtrip failed"

let test_layout_directory () =
  let entries = [ ("a", 10); ("much-longer-name", 20); ("z", 30) ] in
  let back = Layout.directory_of_bytes (Layout.directory_to_bytes entries) in
  Alcotest.(check (list (pair string int))) "roundtrip" entries back

(* --- Radix --- *)

let mem_radix () =
  (* In-memory node store for unit-testing the tree in isolation. *)
  let nodes = Hashtbl.create 16 in
  let next = ref 1 in
  let alloc n =
    List.init n (fun i -> !next + i) |> fun l ->
    next := !next + n;
    l
  in
  let read_node b = Hashtbl.find nodes b in
  let apply (r : Radix.update_result) =
    List.iter (fun (b, n) -> Hashtbl.replace nodes b n) r.Radix.node_writes
  in
  (read_node, alloc, apply)

let test_radix_lookup_empty () =
  let read_node, _, _ = mem_radix () in
  checki "hole" 0 (Radix.lookup ~read_node ~root:0 ~height:0 5)

let test_radix_insert_lookup () =
  let read_node, alloc, apply = mem_radix () in
  let r = Radix.update_batch ~read_node ~alloc ~root:0 ~height:0
      [ (0, 1000); (5, 1005); (511, 1511) ] in
  apply r;
  checki "height 1" 1 r.Radix.new_height;
  checki "k0" 1000 (Radix.lookup ~read_node ~root:r.Radix.new_root ~height:1 0);
  checki "k5" 1005 (Radix.lookup ~read_node ~root:r.Radix.new_root ~height:1 5);
  checki "k511" 1511 (Radix.lookup ~read_node ~root:r.Radix.new_root ~height:1 511);
  checki "hole" 0 (Radix.lookup ~read_node ~root:r.Radix.new_root ~height:1 7)

let test_radix_growth_preserves () =
  let read_node, alloc, apply = mem_radix () in
  let r1 = Radix.update_batch ~read_node ~alloc ~root:0 ~height:0 [ (3, 333) ] in
  apply r1;
  (* Index beyond height-1 capacity forces growth; old keys must survive. *)
  let r2 = Radix.update_batch ~read_node ~alloc ~root:r1.Radix.new_root
      ~height:r1.Radix.new_height [ (100_000, 777) ] in
  apply r2;
  checkb "grew" true (r2.Radix.new_height > r1.Radix.new_height);
  checki "old key" 333
    (Radix.lookup ~read_node ~root:r2.Radix.new_root ~height:r2.Radix.new_height 3);
  checki "new key" 777
    (Radix.lookup ~read_node ~root:r2.Radix.new_root ~height:r2.Radix.new_height 100_000)

let test_radix_cow_preserves_old_root () =
  let read_node, alloc, apply = mem_radix () in
  let r1 = Radix.update_batch ~read_node ~alloc ~root:0 ~height:0 [ (0, 100) ] in
  apply r1;
  let r2 = Radix.update_batch ~read_node ~alloc ~root:r1.Radix.new_root
      ~height:1 [ (0, 200) ] in
  apply r2;
  (* Old tree still answers with the old value: COW. *)
  checki "old epoch view" 100
    (Radix.lookup ~read_node ~root:r1.Radix.new_root ~height:1 0);
  checki "new epoch view" 200
    (Radix.lookup ~read_node ~root:r2.Radix.new_root ~height:1 0);
  checkb "old root freed" true (List.mem r1.Radix.new_root r2.Radix.freed);
  checkb "old data freed" true (List.mem 100 r2.Radix.freed)

let test_radix_iter () =
  let read_node, alloc, apply = mem_radix () in
  let updates = [ (1, 11); (600, 66); (262144, 99) ] in
  let r = Radix.update_batch ~read_node ~alloc ~root:0 ~height:0 updates in
  apply r;
  let acc = ref [] in
  Radix.iter ~read_node ~root:r.Radix.new_root ~height:r.Radix.new_height
    ~f:(fun ~index ~block -> acc := (index, block) :: !acc);
  Alcotest.(check (list (pair int int))) "all present" updates (List.rev !acc)

let prop_radix_model =
  QCheck.Test.make ~count:100 ~name:"radix agrees with assoc model"
    QCheck.(list_of_size Gen.(int_range 1 60)
              (pair (int_bound 100_000) (int_range 1 1_000_000)))
    (fun ops ->
      let read_node, alloc, apply = mem_radix () in
      let root = ref 0 and height = ref 0 in
      let model = Hashtbl.create 16 in
      (* Apply in several batches to exercise COW chains. *)
      let rec batches = function
        | [] -> ()
        | l ->
          let n = min 7 (List.length l) in
          let batch = List.filteri (fun i _ -> i < n) l in
          let rest = List.filteri (fun i _ -> i >= n) l in
          (* Last write per index wins within a batch. *)
          let r = Radix.update_batch ~read_node ~alloc ~root:!root
              ~height:!height batch in
          apply r;
          root := r.Radix.new_root;
          height := r.Radix.new_height;
          List.iter (fun (i, v) -> Hashtbl.replace model i v) batch;
          batches rest
      in
      batches ops;
      Hashtbl.fold
        (fun i v ok ->
          ok && Radix.lookup ~read_node ~root:!root ~height:!height i = v)
        model true)

(* --- Store --- *)

let test_store_create_open () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"obj1" () in
      checki "epoch 0" 0 (Store.epoch o);
      checkb "open finds it" true (Store.open_obj s ~name:"obj1" <> None);
      checkb "missing is None" true (Store.open_obj s ~name:"nope" = None);
      checkb "dup create raises" true
        (try ignore (Store.create s ~name:"obj1" ()); false
         with Invalid_argument _ -> true))
    ()

let test_store_commit_read () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let e = Store.commit s o [ (0, page 'A'); (9, page 'B') ] in
      checki "epoch bumped" e (Store.epoch o);
      checkb "epoch > 0" true (e > 0);
      (match Store.read_block s o 0 with
      | Some b -> checkb "A" true (Bytes.for_all (fun c -> c = 'A') b)
      | None -> Alcotest.fail "missing block 0");
      (match Store.read_block s o 9 with
      | Some b -> checkb "B" true (Bytes.for_all (fun c -> c = 'B') b)
      | None -> Alcotest.fail "missing block 9");
      checkb "hole" true (Store.read_block s o 5 = None);
      checki "size tracks" (10 * 4096) (Store.size_bytes o))
    ()

let test_store_overwrite () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      ignore (Store.commit s o [ (3, page 'X') ]);
      ignore (Store.commit s o [ (3, page 'Y') ]);
      match Store.read_block s o 3 with
      | Some b -> checkb "latest" true (Bytes.for_all (fun c -> c = 'Y') b)
      | None -> Alcotest.fail "missing")
    ()

let test_store_epochs_monotonic () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let e1 = Store.commit s o [ (0, page 'A') ] in
      let e2 = Store.commit s o [ (1, page 'B') ] in
      checkb "monotonic" true (e2 > e1))
    ()

let test_store_remount () =
  in_sim (fun () ->
      let dev, s = mk_store () in
      let o = Store.create s ~name:"persisted" ~meta:0x1234 () in
      ignore (Store.commit s o [ (0, page 'P'); (100, page 'Q') ]);
      (* Remount from the same device: everything must come back. *)
      let s2 = Store.mount dev in
      match Store.open_obj s2 ~name:"persisted" with
      | None -> Alcotest.fail "object lost"
      | Some o2 ->
        checki "meta" 0x1234 (Store.meta o2);
        checki "epoch" (Store.epoch o) (Store.epoch o2);
        (match Store.read_block s2 o2 100 with
        | Some b -> checkb "data" true (Bytes.for_all (fun c -> c = 'Q') b)
        | None -> Alcotest.fail "data lost"))
    ()

let test_store_delete () =
  in_sim (fun () ->
      let dev, s = mk_store () in
      let o = Store.create s ~name:"tmp" () in
      ignore (Store.commit s o [ (0, page 'T') ]);
      let free_before = Store.free_blocks s in
      Store.delete s o;
      checkb "blocks reclaimed" true (Store.free_blocks s > free_before);
      checkb "gone" true (Store.open_obj s ~name:"tmp" = None);
      let s2 = Store.mount dev in
      checkb "gone after remount" true (Store.open_obj s2 ~name:"tmp" = None))
    ()

let test_store_multiple_objects_independent () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let a = Store.create s ~name:"a" () in
      let b = Store.create s ~name:"b" () in
      ignore (Store.commit s a [ (0, page 'A') ]);
      ignore (Store.commit s b [ (0, page 'B') ]);
      (match Store.read_block s a 0 with
      | Some x -> checkb "a" true (Bytes.for_all (fun c -> c = 'A') x)
      | None -> Alcotest.fail "a missing");
      match Store.read_block s b 0 with
      | Some x -> checkb "b" true (Bytes.for_all (fun c -> c = 'B') x)
      | None -> Alcotest.fail "b missing")
    ()

let test_store_async_commit () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let e, ticket = Store.commit_async s o [ (0, page 'Z') ] in
      checkb "not durable yet" true (Store.epoch o < e);
      Sync.await ticket;
      checkb "durable" true (Store.epoch o >= e))
    ()

let test_store_concurrent_commits_same_object () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let n = 16 in
      let ts =
        List.init n (fun i ->
            Sched.spawn (fun () ->
                ignore (Store.commit s o [ (i, Bytes.make 4096 (Char.chr (65 + i))) ])))
      in
      List.iter Sched.join ts;
      for i = 0 to n - 1 do
        match Store.read_block s o i with
        | Some b ->
          checkb (Printf.sprintf "block %d" i) true
            (Bytes.for_all (fun c -> c = Char.chr (65 + i)) b)
        | None -> Alcotest.fail "missing block"
      done;
      checkb "epoch advanced" true (Store.epoch o >= 1))
    ()

let test_store_group_commit_batches () =
  in_sim (fun () ->
      (* Concurrent commits to one object must not serialize into N full
         header writes each costing a disk command; with flat combining,
         total time for 16 concurrent 4 KiB commits stays well under 16x
         a single sync commit. *)
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let t0 = Sched.now () in
      ignore (Store.commit s o [ (999, page 'W') ]);
      let single = Sched.now () - t0 in
      let t1 = Sched.now () in
      let ts =
        List.init 16 (fun i ->
            Sched.spawn (fun () -> ignore (Store.commit s o [ (i, page 'X') ])))
      in
      List.iter Sched.join ts;
      let batch16 = Sched.now () - t1 in
      checkb "flat combining pays off" true (batch16 < 8 * single))
    ()

let test_store_crash_mid_commit () =
  in_sim (fun () ->
      let dev, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      ignore (Store.commit s o [ (0, page 'G') ]);
      let e1 = Store.epoch o in
      (* Crash while the second commit's IO is in flight. *)
      let w =
        Sched.spawn (fun () ->
            try ignore (Store.commit s o [ (0, page 'H'); (1, page 'I') ])
            with Disk.Powered_off -> ())
      in
      Sched.delay 20_000;
      Device.fail_power dev ~torn_seed:11;
      Sched.join w;
      Device.restore_power dev;
      let s2 = Store.mount dev in
      match Store.open_obj s2 ~name:"o" with
      | None -> Alcotest.fail "object lost"
      | Some o2 ->
        (* Either the old epoch with old data, or the new epoch with all
           new data — never a mix. *)
        let b0 = Store.read_block s2 o2 0 in
        if Store.epoch o2 = e1 then begin
          match b0 with
          | Some b -> checkb "old data intact" true (Bytes.for_all (fun c -> c = 'G') b)
          | None -> Alcotest.fail "old data lost"
        end
        else begin
          (match b0 with
          | Some b -> checkb "new b0" true (Bytes.for_all (fun c -> c = 'H') b)
          | None -> Alcotest.fail "new data missing");
          match Store.read_block s2 o2 1 with
          | Some b -> checkb "new b1" true (Bytes.for_all (fun c -> c = 'I') b)
          | None -> Alcotest.fail "new data missing"
        end)
    ()

let prop_store_crash_any_point =
  (* Run a stream of commits, crash at a random time, remount, and verify
     the recovered object equals some prefix of committed states. *)
  QCheck.Test.make ~count:25 ~name:"crash anywhere recovers a committed epoch"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (crash_offset, ncommits) ->
      Sched.run (fun () ->
          let dev, s =
            let dev = mk_dev () in
            Store.format dev;
            (dev, Store.mount dev)
          in
          let o = Store.create s ~name:"o" () in
          (* Model: epoch -> expected contents of block 0. *)
          let committed = Hashtbl.create 8 in
          Hashtbl.replace committed 0 None;
          let w =
            Sched.spawn (fun () ->
                try
                  for i = 1 to ncommits do
                    let c = Char.chr (64 + i) in
                    let e = Store.commit s o [ (0, Bytes.make 4096 c) ] in
                    Hashtbl.replace committed e (Some c)
                  done
                with Disk.Powered_off -> ())
          in
          Sched.delay (10_000 + crash_offset);
          Device.fail_power dev ~torn_seed:crash_offset;
          Sched.join w;
          Device.restore_power dev;
          let s2 = Store.mount dev in
          match Store.open_obj s2 ~name:"o" with
          | None -> false
          | Some o2 -> (
            let e = Store.epoch o2 in
            match Hashtbl.find_opt committed e with
            | None ->
              (* The epoch on disk must be one the writer initiated; with
                 group commit, epochs may skip but must be <= last issued. *)
              e <= ncommits
              &&
              (match Store.read_block s2 o2 0 with
              | Some b ->
                let c = Bytes.get b 0 in
                c >= 'A' && c <= Char.chr (64 + ncommits)
                && Bytes.for_all (fun x -> x = c) b
              | None -> false)
            | Some None -> Store.read_block s2 o2 0 = None
            | Some (Some c) -> (
              match Store.read_block s2 o2 0 with
              | Some b -> Bytes.for_all (fun x -> x = c) b
              | None -> false))))

let test_store_set_meta_durable () =
  in_sim (fun () ->
      let dev, s = mk_store () in
      let o = Store.create s ~name:"o" ~meta:7 () in
      checki "initial meta" 7 (Store.meta o);
      Store.set_meta s o 99;
      let s2 = Store.mount dev in
      match Store.open_obj s2 ~name:"o" with
      | Some o2 -> checki "meta durable" 99 (Store.meta o2)
      | None -> Alcotest.fail "object lost")
    ()

let test_store_list_objects () =
  in_sim (fun () ->
      let _, s = mk_store () in
      ignore (Store.create s ~name:"b" ());
      ignore (Store.create s ~name:"a" ());
      ignore (Store.create s ~name:"c" ());
      Alcotest.(check (list string)) "sorted names" [ "a"; "b"; "c" ]
        (Store.list_objects s))
    ()

let test_store_grow_persists_size () =
  in_sim (fun () ->
      let dev, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      Store.grow s o ~size_bytes:123_456;
      (* Size is folded into the next commit's header. *)
      ignore (Store.commit s o [ (0, page 'z') ]);
      let s2 = Store.mount dev in
      match Store.open_obj s2 ~name:"o" with
      | Some o2 -> checki "size persisted" 123_456 (Store.size_bytes o2)
      | None -> Alcotest.fail "object lost")
    ()

let test_store_no_superblock_is_corrupt () =
  in_sim (fun () ->
      let dev = mk_dev () in
      checkb "corrupt" true
        (try ignore (Store.mount dev); false with Store.Corrupt _ -> true))
    ()

let test_store_space_reuse () =
  in_sim (fun () ->
      (* Repeated overwrites must not leak space: free count returns to a
         steady state. *)
      let _, s = mk_store ~mib:4 () in
      let o = Store.create s ~name:"o" () in
      ignore (Store.commit s o [ (0, page 'A') ]);
      let free1 = Store.free_blocks s in
      for _ = 1 to 50 do
        ignore (Store.commit s o [ (0, page 'B') ])
      done;
      let free2 = Store.free_blocks s in
      checki "no leak" free1 free2)
    ()

let test_store_large_sparse_object () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"sparse" () in
      (* Far index: forces a 3-level tree. *)
      let idx = 300_000 in
      ignore (Store.commit s o [ (idx, page 'S') ]);
      (match Store.read_block s o idx with
      | Some b -> checkb "data" true (Bytes.for_all (fun c -> c = 'S') b)
      | None -> Alcotest.fail "missing");
      checkb "holes stay holes" true (Store.read_block s o (idx - 1) = None))
    ()

(* --- Node images: cold mounts, allocation, pool return --- *)

let pages_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Bytes.equal x y
  | _ -> false

(* The warm store answers from node images it COWed in memory; a fresh
   mount reads every image back from disk. Both must agree on every
   lookup: the image the store caches is the bytes it wrote. *)
let prop_cold_remount_differential =
  QCheck.Test.make ~count:30 ~name:"cold remount answers like the warm store"
    QCheck.(list_of_size Gen.(int_range 1 6)
              (list_of_size Gen.(int_range 1 8) (int_bound 300_000)))
    (fun batches ->
      Sched.run (fun () ->
          let dev, s = mk_store ~mib:32 () in
          let o = Store.create s ~name:"o" () in
          List.iteri
            (fun e idxs ->
              let idxs = List.sort_uniq compare idxs in
              ignore
                (Store.commit s o
                   (List.map
                      (fun i ->
                        (i, tagged (Printf.sprintf "%d@%d" i e)))
                      idxs)))
            batches;
          let probes =
            List.concat_map
              (fun i -> [ i; i + 1; max 0 (i - 1); i lxor 511 ])
              (List.concat batches)
            |> List.sort_uniq compare
          in
          let cold = Store.mount dev in
          match Store.open_obj cold ~name:"o" with
          | None -> false
          | Some o2 ->
            Store.epoch o2 = Store.epoch o
            && Store.size_bytes o2 = Store.size_bytes o
            && List.for_all
                 (fun i ->
                   pages_equal (Store.read_block s o i)
                     (Store.read_block cold o2 i))
                 probes))

(* Superseded images stay cached until the header flip: while a batch is
   in flight, readers still resolve the committed epoch through them, even
   as another object's commit allocates fresh images. *)
let test_reads_during_flight_see_committed_epoch () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let other = Store.create s ~name:"other" () in
      ignore (Store.commit s o [ (1, page 'a'); (600, page 'b') ]);
      let e, ticket = Store.commit_async s o [ (1, page 'A'); (600, page 'B') ] in
      let _, t2 = Store.commit_async s other [ (5, page 'x'); (700, page 'y') ] in
      let reads = ref 0 in
      while Store.epoch o < e do
        let expect i c =
          match Store.read_block s o i with
          | Some b when Store.epoch o < e ->
            incr reads;
            checkb (Printf.sprintf "block %d in flight" i) true
              (Bytes.for_all (fun x -> x = c) b)
          | Some _ -> ()
          | None -> Alcotest.fail "committed block missing in flight"
        in
        expect 1 'a';
        expect 600 'b';
        Sched.delay 1_000
      done;
      Sync.await ticket;
      Sync.await t2;
      checkb "read while in flight" true (!reads > 0);
      match Store.read_block s o 600 with
      | Some b -> checkb "new epoch" true (Bytes.for_all (fun x -> x = 'B') b)
      | None -> Alcotest.fail "missing")
    ()

(* A superseded block stays allocated until the header write that drops
   it has completed: a second thread sampling the free count at every
   instant of an overwrite commit sees the new blocks taken first and
   the old ones returned only once the new epoch is durable. *)
let test_superseded_blocks_freed_after_header () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      (* Index 600 makes the tree height 2: a root over two leaves. *)
      ignore (Store.commit s o [ (3, page 'a'); (600, page 'b') ]);
      let free0 = Store.free_blocks s in
      let e, ticket = Store.commit_async s o [ (3, page 'A'); (600, page 'B') ] in
      let finished = ref false in
      let samples = ref [] (* (header written, free blocks), newest first *) in
      let sampler =
        Sched.spawn ~name:"sampler" (fun () ->
            while not !finished do
              samples := (Store.epoch o >= e, Store.free_blocks s) :: !samples;
              Sched.delay 1
            done)
      in
      Sync.await ticket;
      finished := true;
      Sched.join sampler;
      let in_flight =
        List.filter_map (fun (durable, n) -> if durable then None else Some n)
          (List.rev !samples)
      in
      (* Two data blocks and the three nodes of their paths. *)
      checki "new blocks taken in flight" (free0 - 5)
        (List.fold_left min free0 in_flight);
      ignore
        (List.fold_left
           (fun prev n ->
             if n > prev then
               Alcotest.failf "%d blocks freed before the header write" (n - prev);
             n)
           free0 in_flight);
      List.iter
        (fun (durable, n) -> if durable then checki "old blocks freed" free0 n)
        !samples;
      checki "after the commit" free0 (Store.free_blocks s))
    ()

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* A steady-state commit COWs its path into recycled pooled images and
   lends them to the device as they are: no per-node heap copy, no
   serialization buffer. *)
let test_commit_allocation () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let a = page 'a' and b = page 'b' in
      (* Index 600 makes the tree height 2: a root over two leaves. *)
      for _ = 1 to 8 do
        ignore (Store.commit s o [ (3, a); (600, b) ])
      done;
      Gc.minor ();
      let w0 = major_words () in
      ignore (Store.commit s o [ (3, b); (600, a) ]);
      let words = major_words () -. w0 in
      if words > 64. then
        Alcotest.failf "steady-state 2-page commit allocated %.0f major words"
          words)
    ()

let outstanding_4k () =
  match
    List.find_opt
      (fun c -> c.Msnap_util.Pool.cs_size = Layout.block_size)
      (Msnap_util.Pool.stats ())
  with
  | Some c -> c.Msnap_util.Pool.cs_outstanding
  | None -> 0

(* Every superseded node image goes back to the pool after its header
   flip: over many commits only the live tree's images stay out. *)
let test_freed_images_recycled () =
  in_sim (fun () ->
      let _, s = mk_store () in
      let o = Store.create s ~name:"o" () in
      let before = outstanding_4k () in
      let rng = Rng.create 5 in
      let leaves = Hashtbl.create 8 in
      for _ = 1 to 200 do
        let i = Rng.int rng 2048 and j = Rng.int rng 2048 in
        Hashtbl.replace leaves (i / 512) ();
        Hashtbl.replace leaves (j / 512) ();
        ignore
          (Store.commit s o
             (List.sort_uniq compare [ i; j ] |> List.map (fun i -> (i, page 'r'))))
      done;
      let live_nodes = 1 + Hashtbl.length leaves in
      let grown = outstanding_4k () - before in
      if grown > live_nodes then
        Alcotest.failf "4 KiB class grew by %d outstanding, live tree has %d nodes"
          grown live_nodes)
    ()

(* --- Store.commit against commit_async + await --- *)

(* The definition [Store.commit] must match: the asynchronous commit,
   whose worker is a thread of its own, then an await. *)
let ref_commit s o pages =
  let epoch, ticket = Store.commit_async s o pages in
  Sync.await ticket;
  epoch

(* What the caller of one two-page commit sees: the epoch it returned
   (or the exception it raised), the object's epoch, the time it took,
   the device's stats, the tid of the next spawn, and the run's
   run-queue pops (host side, to tell the paths apart). The page the
   object starts with goes in through the reference. [bystander] makes
   a thread due at the instant the commit starts its worker.
   [cut_at] cuts the power that many ns into the call, from a thread
   already parked in a delay there. A [Deadlock] escapes [Sched.run]. *)
let commit_run ~commit ~bystander ?cut_at () =
  let events () =
    let e, _, _ = Sched.host_counters () in
    e
  in
  let e0 = events () in
  let seen =
    Sched.run (fun () ->
        let dev, s = mk_store () in
        let o = Store.create s ~name:"o" () in
        ignore (ref_commit s o [ (0, page 'a') ]);
        let t0 = Sched.now () in
        let cutter =
          Option.map
            (fun d ->
              Sched.spawn (fun () ->
                  Sched.delay d;
                  Device.fail_power dev ~torn_seed:7))
            cut_at
        in
        if cutter <> None then Sched.yield ();
        (* Due as the commit's CPU-side setup ends and its worker starts. *)
        if bystander then
          ignore
            (Sched.spawn (fun () ->
                 Sched.delay (2 * Msnap_sim.Costs.io_initiate);
                 Sched.cpu 50));
        let result =
          match commit s o [ (1, page 'b'); (2, page 'c') ] with
          | e -> Printf.sprintf "epoch %d" e
          | exception exn -> Printexc.to_string exn
        in
        let took = Sched.now () - t0 in
        let next_tid = Sched.tid_int (Sched.spawn ignore) in
        Option.iter Sched.join cutter;
        let stats = Device.stats dev in
        if cut_at <> None then Device.restore_power dev;
        (result, Store.epoch o, took, stats, next_tid))
  in
  (seen, events () - e0)

(* With nothing due at the call the worker runs in the caller's fiber,
   which saves run-queue pops; with a bystander due it is spawned, and
   the run is the reference's pop for pop. The caller sees the same in
   both, with the power on and with it cut mid-command: a quarter of
   the uncut commit's time lands in its first device command (data and
   nodes), where the worker is parked in [Disk.service]. *)
let test_commit_matches_reference () =
  let (_, _, took, _, _), _ = commit_run ~commit:ref_commit ~bystander:false () in
  List.iter
    (fun (cut_at, bystander) ->
      let name =
        Printf.sprintf "%s, %s"
          (if bystander then "bystander due" else "nothing due")
          (match cut_at with None -> "power on" | Some _ -> "power cut")
      in
      let ((result, _, _, _, _) as seen), events =
        commit_run ~commit:Store.commit ~bystander ?cut_at ()
      and ref_seen, ref_events =
        commit_run ~commit:ref_commit ~bystander ?cut_at ()
      in
      checkb (name ^ ": the caller sees the reference") true (seen = ref_seen);
      checks (name ^ ": outcome")
        (if cut_at = None then "epoch 2" else Printexc.to_string Disk.Powered_off)
        result;
      if bystander then checki (name ^ ": spawned, as the reference") ref_events events
      else
        checkb
          (Printf.sprintf "%s: inline, fewer pops (%d vs %d)" name events ref_events)
          true (events < ref_events))
    [ (None, false); (None, true); (Some (took / 4), false); (Some (took / 4), true) ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "objstore"
    [
      ( "layout",
        [
          tc "superblock roundtrip" test_layout_superblock;
          tc "superblock corruption" test_layout_superblock_corrupt;
          tc "header roundtrip" test_layout_header;
          tc "directory roundtrip" test_layout_directory;
        ] );
      ( "radix",
        [
          tc "lookup empty" test_radix_lookup_empty;
          tc "insert/lookup" test_radix_insert_lookup;
          tc "growth preserves" test_radix_growth_preserves;
          tc "cow preserves old root" test_radix_cow_preserves_old_root;
          tc "iter" test_radix_iter;
          QCheck_alcotest.to_alcotest prop_radix_model;
        ] );
      ( "store",
        [
          tc "create/open" test_store_create_open;
          tc "commit/read" test_store_commit_read;
          tc "overwrite" test_store_overwrite;
          tc "epochs monotonic" test_store_epochs_monotonic;
          tc "remount" test_store_remount;
          tc "delete" test_store_delete;
          tc "objects independent" test_store_multiple_objects_independent;
          tc "async commit" test_store_async_commit;
          tc "concurrent same-object" test_store_concurrent_commits_same_object;
          tc "group commit" test_store_group_commit_batches;
          tc "crash mid-commit" test_store_crash_mid_commit;
          tc "commit = commit_async + await" test_commit_matches_reference;
          tc "mount without format" test_store_no_superblock_is_corrupt;
          tc "set_meta durable" test_store_set_meta_durable;
          tc "list objects" test_store_list_objects;
          tc "grow persists size" test_store_grow_persists_size;
          tc "space reuse" test_store_space_reuse;
          tc "sparse object" test_store_large_sparse_object;
          QCheck_alcotest.to_alcotest prop_store_crash_any_point;
        ] );
      ( "images",
        [
          QCheck_alcotest.to_alcotest prop_cold_remount_differential;
          tc "reads in flight see the committed epoch"
            test_reads_during_flight_see_committed_epoch;
          tc "superseded blocks freed after the header"
            test_superseded_blocks_freed_after_header;
          tc "steady-state commit allocation" test_commit_allocation;
          tc "freed images recycled" test_freed_images_recycled;
        ] );
    ]
