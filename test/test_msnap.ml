module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Pool = Msnap_util.Pool
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Tlb = Msnap_vm.Tlb
module Msnap = Msnap_core.Msnap
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let in_sim f () = Sched.run f

(* Pooled buffers live outside the OCaml heap and nothing reclaims a
   dropped one: every case disposes what it boots, except the ones that
   cut power mid-run, which count what they keep in [exempt]. *)
let suite_start = outstanding ()
let exempt = ref 0

let str_read k md ~off ~len = Bytes.to_string (Msnap.read k md ~off ~len)

let test_open_write_read () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      checkb "high arena address" true (Msnap.addr md >= Msnap_vm.Addr.msnap_base);
      Msnap.write_string k md ~off:100 "persistent data";
      checks "roundtrip" "persistent data" (str_read k md ~off:100 ~len:15))
    ()

let test_dirty_tracking () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      checki "clean" 0 (Msnap.dirty_count k);
      Msnap.write_string k md ~off:0 "a";
      Msnap.write_string k md ~off:10 "b"; (* same page: no new entry *)
      checki "one page" 1 (Msnap.dirty_count k);
      Msnap.write_string k md ~off:4096 "c";
      checki "two pages" 2 (Msnap.dirty_count k);
      ignore (Msnap.persist k ());
      checki "empty after persist" 0 (Msnap.dirty_count k);
      Msnap.write_string k md ~off:0 "d";
      checki "re-armed" 1 (Msnap.dirty_count k))
    ()

let test_persist_durable () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      let va = Msnap.addr md in
      Msnap.write_string k md ~off:0 "survive me";
      let e = Msnap.persist k ~region:md () in
      checkb "epoch issued" true (e > 0);
      checki "durable" e (Msnap.durable_epoch md);
      (* "Reboot": fresh machine over the same device. *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checki "same fixed address" va (Msnap.addr md2);
      checks "data recovered" "survive me" (str_read k2 md2 ~off:0 ~len:10))
    ()

let test_unpersisted_lost () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "committed";
      ignore (Msnap.persist k ());
      Msnap.write_string k md ~off:0 "uncommitt";
      (* no persist: reboot *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checks "only committed state" "committed" (str_read k2 md2 ~off:0 ~len:9))
    ()

let test_per_thread_isolation () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      (* Thread A dirties page 0, thread B dirties page 1. B persists: only
         B's page must reach the disk. *)
      let a =
        Sched.spawn ~name:"A" (fun () ->
            Msnap.write_string k md ~off:0 "AAAA";
            Sched.delay 1_000_000 (* stay alive; do not persist *))
      in
      Sched.delay 100;
      let b =
        Sched.spawn ~name:"B" (fun () ->
            Msnap.write_string k md ~off:4096 "BBBB";
            ignore (Msnap.persist k ()))
      in
      Sched.join b;
      Sched.join a;
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checks "B's page persisted" "BBBB" (str_read k2 md2 ~off:4096 ~len:4);
      checks "A's page not included" "\000\000\000\000" (str_read k2 md2 ~off:0 ~len:4))
    ()

let test_global_scope () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      let a =
        Sched.spawn ~name:"A" (fun () ->
            Msnap.write_string k md ~off:0 "AAAA";
            Sched.delay 1_000_000)
      in
      Sched.delay 10_000; (* let A's tracking fault complete *)
      (* MS_GLOBAL from main picks up A's dirty set too. *)
      ignore (Msnap.persist k ~scope:`Global ());
      Sched.join a;
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checks "A's page included" "AAAA" (str_read k2 md2 ~off:0 ~len:4))
    ()

let test_region_filter () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let r1 = Msnap.open_region k ~name:"r1" ~len:(Size.kib 16) () in
      let r2 = Msnap.open_region k ~name:"r2" ~len:(Size.kib 16) () in
      Msnap.write_string k r1 ~off:0 "one";
      Msnap.write_string k r2 ~off:0 "two";
      ignore (Msnap.persist k ~region:r1 ());
      checki "r2 still dirty" 1 (Msnap.dirty_count k);
      checkb "r1 durable" true (Msnap.durable_epoch r1 > 0);
      checki "r2 not committed" 0 (Msnap.durable_epoch r2);
      (* Descriptor -1: persist everything. *)
      ignore (Msnap.persist k ());
      checki "all flushed" 0 (Msnap.dirty_count k);
      checkb "r2 durable now" true (Msnap.durable_epoch r2 > 0))
    ()

let test_async_wait () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "async";
      let t0 = Sched.now () in
      let e = Msnap.persist k ~region:md ~mode:`Async () in
      let initiated = Sched.now () - t0 in
      checkb "returns before IO" true (initiated < 20_000);
      checkb "not yet durable" true (Msnap.durable_epoch md < e);
      Msnap.wait k md e;
      checkb "durable after wait" true (Msnap.durable_epoch md >= e);
      (* Waiting again is a no-op; waiting for a never-issued epoch fails. *)
      Msnap.wait k md e;
      checkb "future epoch rejected" true
        (try Msnap.wait k md (e + 100); false with Invalid_argument _ -> true))
    ()

let test_async_latency_vs_sync () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.mib 1) () in
      (* 16 pages dirty: async call must cost microseconds (CPU only),
         sync must include the IO (tens of microseconds). *)
      let dirty () =
        for i = 0 to 15 do
          Msnap.write_string k md ~off:(i * 4096) "x"
        done
      in
      dirty ();
      let t0 = Sched.now () in
      let e = Msnap.persist k ~region:md ~mode:`Async () in
      let async_ns = Sched.now () - t0 in
      Msnap.wait k md e;
      dirty ();
      let t1 = Sched.now () in
      ignore (Msnap.persist k ~region:md ());
      let sync_ns = Sched.now () - t1 in
      checkb "async is CPU-only" true (async_ns < 15_000);
      checkb "sync includes disk" true (sync_ns > 30_000 && sync_ns < 120_000))
    ()

let test_cow_in_flight () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "OLD!";
      let e = Msnap.persist k ~region:md ~mode:`Async () in
      (* Write the same page while its μCheckpoint is in flight: must not
         block, must not corrupt the checkpoint. *)
      Msnap.write_string k md ~off:0 "NEW!";
      checks "memory sees the new data" "NEW!" (str_read k md ~off:0 ~len:4);
      Msnap.wait k md e;
      (* Reboot: epoch e must contain OLD!, not NEW!. *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checks "checkpoint is the old data" "OLD!" (str_read k2 md2 ~off:0 ~len:4))
    ()

let test_cow_then_second_persist () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "OLD!";
      let e1 = Msnap.persist k ~region:md ~mode:`Async () in
      Msnap.write_string k md ~off:0 "NEW!";
      checki "COW re-tracked the page" 1 (Msnap.dirty_count k);
      let e2 = Msnap.persist k ~region:md () in
      checkb "second epoch later" true (e2 > e1);
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      checks "final state is the new data" "NEW!" (str_read k2 md2 ~off:0 ~len:4))
    ()

let test_no_frame_leak_after_cow () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let phys = Aspace.phys (Msnap.aspace k) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "x";
      ignore (Msnap.persist k ~region:md ());
      let baseline = Phys.live_frames phys in
      for _ = 1 to 10 do
        let e = Msnap.persist k ~region:md ~mode:`Async () in
        ignore e;
        Msnap.write_string k md ~off:0 "y";
        ignore (Msnap.persist k ~region:md ())
      done;
      checkb "frames bounded" true (Phys.live_frames phys <= baseline + 2))
    ()

(* A machine that is built, run and disposed (device, store, frames)
   hands every buffer back, and so does a second machine booted over
   the same device to recover it. *)
let test_disposed_machine_returns_buffers () =
  let before = outstanding () in
  in_dev ~mib:32 (fun dev ->
      (let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
       let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 256) () in
       for i = 0 to 63 do
         Msnap.write_string k md ~off:(i * 4096) (Printf.sprintf "p%d" i)
       done;
       ignore (Msnap.persist k ~region:md ());
       (* An async persist leaves its pages copy-on-write in flight. *)
       ignore (Msnap.persist k ~region:md ~mode:`Async ());
       Msnap.write_string k md ~off:0 "cow";
       ignore (Msnap.persist k ~region:md ()));
      let& k = (Msnap.boot ~format:false dev, Msnap.dispose) in
      ignore (Msnap.open_region k ~name:"db" ~len:(Size.kib 256) ()))
    ();
  checki "outstanding pooled buffers" before (outstanding ())

let test_property_violation_cross_process () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let a1 = Msnap.aspace k in
      let a2 = Aspace.create ~name:"p2" (Aspace.phys a1) in
      Msnap.attach k a2;
      let md = Msnap.open_region k ~name:"shm" ~len:(Size.kib 16) () in
      Msnap.map_into k md a2;
      let va = Msnap.addr md in
      (* Thread in p1 dirties the page. *)
      let t1 =
        Sched.spawn (fun () ->
            Aspace.write a1 ~va (Bytes.of_string "A");
            Sched.delay 1_000)
      in
      Sched.delay 10;
      (* A second thread writing via p2 faults on p2's own PTE: strict mode
         detects the property-③ violation. *)
      let violated = ref false in
      let t2 =
        Sched.spawn (fun () ->
            try Aspace.write a2 ~va (Bytes.of_string "B")
            with Msnap.Property_violation _ -> violated := true)
      in
      Sched.join t2;
      Sched.join t1;
      checkb "violation detected" true !violated;
      (* Relaxed mode (MVCC databases) allows it. *)
      Msnap.set_strict k false;
      let t3 = Sched.spawn (fun () -> Aspace.write a2 ~va (Bytes.of_string "B")) in
      Sched.join t3;
      checkb "relaxed allows" true (Bytes.to_string (Aspace.read a1 ~va ~len:1) = "B"))
    ()

let test_shared_region_cow_redirects_all_processes () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      Msnap.set_strict k false;
      let a1 = Msnap.aspace k in
      let a2 = Aspace.create ~name:"p2" (Aspace.phys a1) in
      Msnap.attach k a2;
      let md = Msnap.open_region k ~name:"shm" ~len:(Size.kib 16) () in
      Msnap.map_into k md a2;
      let va = Msnap.addr md in
      Aspace.write a1 ~va (Bytes.of_string "OLD!");
      (* Fault the page into p2 as well. *)
      checkb "shared read" true (Bytes.to_string (Aspace.read a2 ~va ~len:4) = "OLD!");
      let e = Msnap.persist k ~region:md ~mode:`Async () in
      (* COW during flight, from p1; p2 must observe the new frame too. *)
      Aspace.write a1 ~va (Bytes.of_string "NEW!");
      checks "p2 sees the copy" "NEW!" (Bytes.to_string (Aspace.read a2 ~va ~len:4));
      Msnap.wait k md e)
    ()

(* Cuts power mid-persist, so nothing is disposed (buffer ownership may
   be mid-transfer). *)
let test_crash_during_persist () =
  let before = outstanding () in
  in_sim (fun () ->
      let dev = Device.testbed ~mib:32 in
      let k = Msnap.boot ~format:true dev in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
      Msnap.write_string k md ~off:0 "stable";
      ignore (Msnap.persist k ~region:md ());
      let e1 = Msnap.durable_epoch md in
      Msnap.write_string k md ~off:0 "doomed";
      let crasher =
        Sched.spawn (fun () ->
            try ignore (Msnap.persist k ~region:md ())
            with Disk.Powered_off -> ())
      in
      Sched.delay 18_000; (* mid-IO *)
      Device.fail_power dev ~torn_seed:5;
      Sched.join crasher;
      Device.restore_power dev;
      let k2 = Msnap.boot ~format:false dev in
      let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
      (* Either epoch e1 with the old data, or a newer epoch with the new. *)
      if Msnap.durable_epoch md2 = e1 then
        checks "old epoch intact" "stable" (str_read k2 md2 ~off:0 ~len:6)
      else checks "new epoch complete" "doomed" (str_read k2 md2 ~off:0 ~len:6))
    ();
  exempt := !exempt + outstanding () - before

(* The reference behaviour of a grouped commit under a power cut: two
   threads persist concurrently and the power fails while their
   μCheckpoints are in flight. A caller whose commit was durable before
   the cut returns; every other one catches [Powered_off]. None is left
   parked: at 10 us both commits are in flight, at 50 us only the second
   round, and by 80 us both are durable. *)
let test_concurrent_persist_power_cut () =
  let before = outstanding () in
  List.iter
    (fun (cut_us, want) ->
      let failed =
        Sched.run (fun () ->
            let dev = Device.testbed ~mib:32 in
            let k = Msnap.boot ~format:true dev in
            let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
            let failed = ref 0 in
            let ts =
              List.init 2 (fun i ->
                  Sched.spawn (fun () ->
                      Msnap.write_string k md ~off:(i * 4096) "doomed";
                      try ignore (Msnap.persist k ~region:md ())
                      with Disk.Powered_off -> incr failed))
            in
            Sched.delay (cut_us * 1000);
            Device.fail_power dev ~torn_seed:5;
            List.iter Sched.join ts;
            !failed)
      in
      checki (Printf.sprintf "persists failed by a cut at %d us" cut_us) want failed)
    [ (10, 2); (50, 1); (80, 0) ];
  exempt := !exempt + outstanding () - before

(* Two threads fault the same non-resident page of a recovered region
   and the power fails during the page-in: the thread reading the block
   and the one waiting for it both catch [Powered_off]. *)
let test_page_in_power_cut () =
  let before = outstanding () in
  List.iter
    (fun cut_ns ->
      let failed =
        Sched.run (fun () ->
            let dev = Device.testbed ~mib:32 in
            let k = Msnap.boot ~format:true dev in
            let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
            Msnap.write_string k md ~off:0 "stable";
            ignore (Msnap.persist k ~region:md ());
            let k2 = Msnap.boot ~format:false dev in
            let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
            let failed = ref 0 in
            let ts =
              List.init 2 (fun _ ->
                  Sched.spawn (fun () ->
                      try ignore (Msnap.read k2 md2 ~off:0 ~len:6)
                      with Disk.Powered_off -> incr failed))
            in
            Sched.delay cut_ns;
            Device.fail_power dev ~torn_seed:5;
            List.iter Sched.join ts;
            !failed)
      in
      checki (Printf.sprintf "cut at %d ns fails both readers" cut_ns) 2 failed)
    [ 100; 1_000; 10_000 ];
  exempt := !exempt + outstanding () - before

let test_multi_region_pointer_stability () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let r1 = Msnap.open_region k ~name:"index" ~len:(Size.kib 16) () in
      let r2 = Msnap.open_region k ~name:"data" ~len:(Size.kib 16) () in
      (* Store a pointer to r2's payload inside r1, paper-style. *)
      let payload_va = Msnap.addr r2 + 512 in
      let ptr = Bytes.create 8 in
      Bytes.set_int64_le ptr 0 (Int64.of_int payload_va);
      Msnap.write k r1 ~off:0 ptr;
      Msnap.write_string k r2 ~off:512 "pointee";
      ignore (Msnap.persist k ());
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let r1' = Msnap.open_region k2 ~name:"index" ~len:(Size.kib 16) () in
      let _r2' = Msnap.open_region k2 ~name:"data" ~len:(Size.kib 16) () in
      let ptr' = Msnap.read k2 r1' ~off:0 ~len:8 in
      let va = Int64.to_int (Bytes.get_int64_le ptr' 0) in
      checki "pointer unchanged" payload_va va;
      (* Dereference through the address space: still valid. *)
      checks "dereferences" "pointee"
        (Bytes.to_string (Aspace.read (Msnap.aspace k2) ~va ~len:7)))
    ()

let test_persist_nothing () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 16) () in
      let e = Msnap.persist k ~region:md () in
      checki "no-op persist returns durable epoch" (Msnap.durable_epoch md) e)
    ()

let test_open_bounds () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 16) () in
      checkb "oob write" true
        (try Msnap.write_string k md ~off:(Size.kib 16) "x"; false
         with Invalid_argument _ -> true);
      checkb "double open" true
        (try ignore (Msnap.open_region k ~name:"db" ~len:4096 ()); false
         with Invalid_argument _ -> true))
    ()

let prop_persist_recover_random =
  QCheck.Test.make ~count:20 ~name:"random writes+persists recover exactly"
    QCheck.(list_of_size Gen.(int_range 1 30)
              (pair (int_bound 15) (int_bound 255)))
    (fun ops ->
      in_dev ~mib:32 (fun dev ->
          let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
          let md = Msnap.open_region k ~name:"db" ~len:(Size.kib 64) () in
          let model = Bytes.make (Size.kib 64) '\000' in
          List.iteri
            (fun i (page, v) ->
              let data = Bytes.make 16 (Char.chr v) in
              Msnap.write k md ~off:(page * 4096) data;
              Bytes.blit data 0 model (page * 4096) 16;
              if i mod 3 = 0 then ignore (Msnap.persist k ()))
            ops;
          ignore (Msnap.persist k ());
          let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
          let md2 = Msnap.open_region k2 ~name:"db" ~len:(Size.kib 64) () in
          Bytes.equal model (Msnap.read k2 md2 ~off:0 ~len:(Size.kib 64)))
        ())

let prop_dirty_model =
  (* Differential for the flat dirty arenas and per-region frame arrays:
     random (possibly page-crossing) writes across two regions, with a
     set-of-(region, page) Hashtbl as the reference dirty tracker (the
     shape of the old per-thread Hashtbl dirty sets). After every write
     the arena's counts must equal the model's; persist empties both;
     the frame arrays must serve back exactly a flat shadow buffer. *)
  QCheck.Test.make ~count:20 ~name:"dirty arena + frames agree with set model"
    QCheck.(list_of_size Gen.(int_range 1 40)
              (pair (int_bound 15) (pair (int_bound 4089) (int_bound 255))))
    (fun ops ->
      in_dev ~mib:32 (fun dev ->
          let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
          let rlen = Size.kib 64 in
          let mds =
            [| Msnap.open_region k ~name:"a" ~len:rlen ();
               Msnap.open_region k ~name:"b" ~len:rlen () |]
          in
          let shadow = [| Bytes.make rlen '\000'; Bytes.make rlen '\000' |] in
          let dirty = Hashtbl.create 64 in
          let ok = ref true in
          List.iteri
            (fun i (page, (jitter, v)) ->
              let r = i mod 2 in
              let off = min (page * 4096 + jitter) (rlen - 16) in
              let data = Bytes.make 16 (Char.chr v) in
              Msnap.write k mds.(r) ~off data;
              Bytes.blit data 0 shadow.(r) off 16;
              for p = off / 4096 to (off + 15) / 4096 do
                Hashtbl.replace dirty (r, p) ()
              done;
              let model_of r =
                Hashtbl.fold (fun (r', _) () n -> if r' = r then n + 1 else n)
                  dirty 0
              in
              ok := !ok
                    && Msnap.dirty_count k = Hashtbl.length dirty
                    && Msnap.dirty_count_of_region k mds.(0) = model_of 0
                    && Msnap.dirty_count_of_region k mds.(1) = model_of 1;
              if i mod 7 = 6 then begin
                ignore (Msnap.persist k ());
                Hashtbl.reset dirty;
                ok := !ok && Msnap.dirty_count k = 0
              end)
            ops;
          !ok
          && Bytes.equal shadow.(0) (Msnap.read k mds.(0) ~off:0 ~len:rlen)
          && Bytes.equal shadow.(1) (Msnap.read k mds.(1) ~off:0 ~len:rlen))
        ())

(* --- Region bookkeeping sized by use --- *)

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* Opening a region costs per touched leaf, not per page: a 65,536-page
   (256 MiB) region must not allocate two page-indexed arrays up front. *)
let test_open_large_region_allocation () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      Gc.minor ();
      let w0 = major_words () in
      let md = Msnap.open_region k ~name:"big" ~len:(65_536 * 4096) () in
      let words = major_words () -. w0 in
      checki "length" (65_536 * 4096) (Msnap.length md);
      if words >= 4096. then
        Alcotest.failf "opening a 65,536-page region allocated %.0f major words"
          words)
    ()

(* The frame table's leaf boundaries: pages 511 and 512 sit in different
   leaves, and page 999 in a partial last leaf. Tracking faults, the
   in-flight COW redirect, the completion-time orphan free and the
   page-in after a reboot must all resolve through the right leaf. *)
let test_leaf_boundaries () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let phys = Aspace.phys (Msnap.aspace k) in
      let len = 1000 * 4096 in
      let md = Msnap.open_region k ~name:"db" ~len () in
      let pages = [ 511; 512; 999 ] in
      let put tag =
        List.iter
          (fun p -> Msnap.write_string k md ~off:(p * 4096) (Printf.sprintf "%s%03d" tag p))
          pages
      in
      let expect k md tag =
        List.iter
          (fun p ->
            checks (Printf.sprintf "page %d" p) (Printf.sprintf "%s%03d" tag p)
              (str_read k md ~off:(p * 4096) ~len:6))
          pages
      in
      put "OLD";
      let live = Phys.live_frames phys in
      let e = Msnap.persist k ~region:md ~mode:`Async () in
      put "NEW";
      expect k md "NEW";
      Msnap.wait k md e;
      checki "orphaned frames freed" live (Phys.live_frames phys);
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"db" ~len () in
      expect k2 md2 "OLD";
      checks "untouched page in the partial leaf" "\000\000"
        (str_read k2 md2 ~off:(998 * 4096) ~len:2);
      ignore (Msnap.persist k ~region:md ());
      let& k3 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md3 = Msnap.open_region k3 ~name:"db" ~len () in
      expect k3 md3 "NEW")
    ()

(* --- the persist pass --- *)

(* Two processes under one name (Aspace.create's default) share a region:
   a persist must re-protect the page in both and invalidate both TLBs,
   so address spaces are told apart by identity, never by name. *)
let test_persist_reprotects_every_process () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let a1 = Msnap.aspace k in
      let a2 = Aspace.create (Aspace.phys a1) in
      checks "one name" (Aspace.name a1) (Aspace.name a2);
      Msnap.attach k a2;
      let md = Msnap.open_region k ~name:"shm" ~len:(Size.kib 16) () in
      Msnap.map_into k md a2;
      let va = Msnap.addr md in
      let misses a = Tlb.misses (Aspace.tlb a) in
      let read a = ignore (Aspace.read a ~va ~len:1) in
      (* Both TLBs cache the page; a1's store dirties it. *)
      Aspace.write a1 ~va (Bytes.of_string "A");
      read a2;
      ignore (Msnap.persist k ());
      List.iter
        (fun (label, a) ->
          let m = misses a in
          read a;
          checki (label ^ " re-walks after persist") (m + 1) (misses a))
        [ ("p1", a1); ("p2", a2) ];
      List.iter
        (fun (label, a) ->
          Aspace.write a ~va (Bytes.of_string label);
          checki (label ^ " store takes a tracking fault") 1 (Msnap.dirty_count k);
          ignore (Msnap.persist k ()))
        [ ("p2", a2); ("p1", a1) ])
    ()

(* Only attached processes are shot down, so only they may map a region. *)
let test_map_into_needs_attach () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let md = Msnap.open_region k ~name:"shm" ~len:(Size.kib 16) () in
      let stranger = Aspace.create ~name:"p2" (Aspace.phys (Msnap.aspace k)) in
      checkb "unattached refused" true
        (match Msnap.map_into k md stranger with
        | () -> false
        | exception Invalid_argument _ -> true))
    ()

(* Golden values of the persist path: epochs, device traffic and virtual
   time of a one-thread persist over two interleaved regions, then of a
   [`Global] persist over two threads, and the device block each page
   landed in. Region order and page order within a region are simulated
   state (commit order, block placement), so a regrouping that moves
   either shows here. *)
let test_persist_golden () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let r1 = Msnap.open_region k ~name:"r1" ~len:(Size.kib 64) () in
      let r2 = Msnap.open_region k ~name:"r2" ~len:(Size.kib 64) () in
      let put md pages tag =
        List.iter
          (fun p ->
            Msnap.write_string k md ~off:(p * 4096)
              (Printf.sprintf "%s.%s%d" (Msnap.name md) tag p))
          pages
      in
      let persist ?scope () =
        let t0 = Sched.now () in
        ignore (Msnap.persist k ?scope ());
        Sched.now () - t0
      in
      let observe () =
        let s = Device.stats dev in
        ( Msnap.durable_epoch r1, Msnap.durable_epoch r2, s.Disk.writes,
          s.Disk.bytes_written )
      in
      Device.reset_stats dev;
      List.iter (fun (md, p) -> put md [ p ] "a")
        [ (r1, 3); (r2, 0); (r1, 0); (r2, 7); (r1, 9); (r2, 2); (r1, 5) ];
      let d1 = persist () in
      let o1 = observe () in
      let other =
        Sched.spawn ~name:"B" (fun () ->
            put r2 [ 4; 1 ] "b";
            put r1 [ 8 ] "b";
            Sched.delay 1_000_000)
      in
      put r1 [ 2; 3 ] "c";
      put r2 [ 6 ] "c";
      Sched.delay 10_000;
      let d2 = persist ~scope:`Global () in
      let o2 = observe () in
      Sched.join other;
      let check label (e1, e2, writes, bytes) (e1', e2', writes', bytes') =
        checki (label ^ ": r1 epoch") e1 e1';
        checki (label ^ ": r2 epoch") e2 e2';
        checki (label ^ ": device writes") writes writes';
        checki (label ^ ": bytes written") bytes bytes'
      in
      checki "one-thread persist time" 47_286 d1;
      check "one-thread persist" (1, 1, 4, 37_888) o1;
      checki "global persist time" 46_022 d2;
      check "global persist" (2, 2, 9, 71_680) o2;
      (* Block placement: the device block each page image landed in. *)
      let placed = ref [] in
      let chunk = Size.mib 1 in
      for c = 0 to (Device.size dev / chunk) - 1 do
        let b = Device.read dev ~off:(c * chunk) ~len:chunk in
        for blk = 0 to (chunk / 4096) - 1 do
          let head = Bytes.sub_string b (blk * 4096) 3 in
          if head = "r1." || head = "r2." then
            placed :=
              Printf.sprintf "%d:%s" ((c * chunk / 4096) + blk)
                (Bytes.sub_string b (blk * 4096) 5)
              :: !placed
        done
      done;
      checks "block placement"
        "6:r1.a3 7:r1.a0 8:r1.a9 9:r1.a5 11:r2.a0 12:r2.a7 13:r2.a2 15:r1.c2 \
         16:r1.c3 17:r1.b8 19:r2.c6 20:r2.b4 21:r2.b1"
        (String.concat " " (List.rev !placed)))
    ()

(* Runs last: every case before it returned what it took. *)
let test_suite_returns_buffers () =
  checki "outstanding pooled buffers" suite_start (outstanding () - !exempt)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "msnap"
    [
      ( "api",
        [
          tc "open/write/read" test_open_write_read;
          tc "dirty tracking" test_dirty_tracking;
          tc "persist durable" test_persist_durable;
          tc "unpersisted lost" test_unpersisted_lost;
          tc "region filter" test_region_filter;
          tc "async wait" test_async_wait;
          tc "async latency" test_async_latency_vs_sync;
          tc "persist nothing" test_persist_nothing;
          tc "bounds" test_open_bounds;
        ] );
      ( "threads",
        [
          tc "per-thread isolation" test_per_thread_isolation;
          tc "global scope" test_global_scope;
          tc "violation detected" test_property_violation_cross_process;
        ] );
      ( "cow",
        [
          tc "in-flight cow" test_cow_in_flight;
          tc "cow then persist" test_cow_then_second_persist;
          tc "no frame leak" test_no_frame_leak_after_cow;
          tc "disposed machine returns buffers" test_disposed_machine_returns_buffers;
          tc "shared-region cow" test_shared_region_cow_redirects_all_processes;
        ] );
      ( "recovery",
        [
          tc "crash during persist" test_crash_during_persist;
          tc "power cut fails concurrent persists" test_concurrent_persist_power_cut;
          tc "power cut during a shared page-in" test_page_in_power_cut;
          tc "pointer stability" test_multi_region_pointer_stability;
          QCheck_alcotest.to_alcotest prop_persist_recover_random;
          QCheck_alcotest.to_alcotest prop_dirty_model;
        ] );
      ( "regions",
        [
          tc "large region open allocation" test_open_large_region_allocation;
          tc "leaf boundaries" test_leaf_boundaries;
        ] );
      ( "persist",
        [
          tc "persist re-protects every process" test_persist_reprotects_every_process;
          tc "map_into needs attach" test_map_into_needs_attach;
          tc "golden values" test_persist_golden;
        ] );
      ( "pool",
        [ tc "suite returns every buffer" test_suite_returns_buffers ] );
    ]
