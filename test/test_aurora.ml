module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Pte = Msnap_vm.Pte
module Ptable = Msnap_vm.Ptable
module Aurora = Msnap_aurora.Aurora
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let boot ~format dev =
  (Aurora.Kernel.boot ~format dev, Aurora.Kernel.dispose)

let test_region_write_read () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:123 (Bytes.of_string "aurora");
      checks "roundtrip" "aurora"
        (Bytes.to_string (Aurora.Region.read r ~off:123 ~len:6)))
    ()

let test_checkpoint_persists () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.of_string "ckpt");
      Aurora.Region.checkpoint r;
      (* Reboot. *)
      let& k2 = boot ~format:false dev in
      let r2 = Aurora.Region.create k2 ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      checks "recovered" "ckpt"
        (Bytes.to_string (Aurora.Region.read r2 ~off:0 ~len:4)))
    ()

let test_incremental_checkpoint () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'a');
      Aurora.Region.checkpoint r;
      (* Dirty exactly one page of many: checkpoint flushes only it. *)
      Aurora.Region.write r ~off:(8 * 4096) (Bytes.make 10 'b');
      let t0 = Sched.now () in
      Aurora.Region.checkpoint r;
      let small = Sched.now () - t0 in
      (* Dirty 12 pages: flush is bigger but both scan the same mapping. *)
      for i = 0 to 11 do
        Aurora.Region.write r ~off:(i * 4096) (Bytes.make 10 'c')
      done;
      let t1 = Sched.now () in
      Aurora.Region.checkpoint r;
      let large = Sched.now () - t1 in
      checkb "incremental: larger dirty set costs more IO" true (large > small))
    ()

let test_breakdown_phases () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      Aurora.Kernel.register_thread k;
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.mib 8) in
      (* Populate the mapping densely so shadow/collapse have the page
         population a real heap mapping would. *)
      for i = 0 to 1023 do
        Aurora.Region.write r ~off:(i * 4096 * 2) (Bytes.make 64 'p')
      done;
      (* Clean the population, then measure a 64 KiB-dirty checkpoint. *)
      Aurora.Region.checkpoint r;
      Aurora.Region.write r ~off:0 (Bytes.make (Size.kib 64) 'd');
      Aurora.Region.checkpoint r;
      match Aurora.Region.last_breakdown r with
      | None -> Alcotest.fail "no breakdown"
      | Some b ->
        checkb "stall > 0" true (b.Aurora.Region.stall > 0);
        checkb "shadow > 0" true (b.Aurora.Region.shadow > 0);
        checkb "io > 0" true (b.Aurora.Region.io > 0);
        checkb "collapse > 0" true (b.Aurora.Region.collapse > 0);
        (* Table 2's signature: shadow+collapse dominate the IO. *)
        checkb "shadowing overhead dominates" true
          (b.Aurora.Region.shadow + b.Aurora.Region.collapse > b.Aurora.Region.io))
    ()

let test_shadow_cost_scales_with_mapping () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let ckpt_cost ~name ~va ~pages =
        let r = Aurora.Region.create k ~name ~va ~len:(pages * 4096) in
        (* Populate everything; dirty only one page. *)
        for i = 0 to pages - 1 do
          Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
        done;
        Aurora.Region.checkpoint r;
        Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
        let t0 = Sched.now () in
        Aurora.Region.checkpoint r;
        Sched.now () - t0
      in
      let small = ckpt_cost ~name:"small" ~va:0x5000_0000 ~pages:64 in
      let big = ckpt_cost ~name:"big" ~va:0x6000_0000 ~pages:4096 in
      (* Same 1-page dirty set, 64x mapping: checkpoint must get much
         slower — the fixed cost MemSnap avoids. *)
      checkb "cost scales with mapping size" true (big > 3 * small))
    ()

let test_cow_during_flight () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.of_string "OLD!");
      (* Run the checkpoint in a thread; write during its IO window. *)
      let c = Sched.spawn (fun () -> Aurora.Region.checkpoint r) in
      Sched.delay 25_000; (* past shadow, inside IO *)
      Aurora.Region.write r ~off:0 (Bytes.of_string "NEW!");
      Sched.join c;
      checks "memory has new data" "NEW!"
        (Bytes.to_string (Aurora.Region.read r ~off:0 ~len:4));
      let& k2 = boot ~format:false dev in
      let r2 = Aurora.Region.create k2 ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      checks "checkpoint captured old data" "OLD!"
        (Bytes.to_string (Aurora.Region.read r2 ~off:0 ~len:4)))
    ()

(* In-flight COW invariants. A 16-page region is populated (all of it
   unless [populate] says fewer) and cleaned, pages 0..3 are dirtied, and a checkpoint is started in its
   own thread. [during] runs once the shadow has COW-marked the mapping
   and while the checkpoint's IO is still in flight; it gets the region,
   the physical map and a PTE reader. *)
let va = 0x5000_0000
let region_pages = 16

let with_flight ?(populate = region_pages) k ~during =
  let aspace = Aurora.Kernel.aspace k in
  let r = Aurora.Region.create k ~name:"r" ~va ~len:(region_pages * 4096) in
  for i = 0 to populate - 1 do
    Aurora.Region.write r ~off:(i * 4096) (Bytes.of_string "OLD!")
  done;
  Aurora.Region.checkpoint r;
  for i = 0 to 3 do
    Aurora.Region.write r ~off:(i * 4096) (Bytes.of_string "old!")
  done;
  let phys = Aspace.phys aspace in
  let pte i = Ptable.lookup (Aspace.page_table aspace) (Addr.vpn_of_va va + i) in
  let flying = ref true in
  let c =
    Sched.spawn (fun () ->
        Aurora.Region.checkpoint r;
        flying := false)
  in
  while not (Pte.cow (pte 0)) do Sched.delay 100 done;
  during r phys pte;
  checkb "writes landed inside the flight" true !flying;
  Sched.join c;
  (r, phys, pte)

let test_cow_page_in_after_shadow () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      ignore
        (with_flight ~populate:8 k ~during:(fun r phys pte ->
             checkb "unpopulated page absent" false (Pte.present (pte 12));
             let live = Phys.live_frames phys in
             Aurora.Region.write r ~off:(12 * 4096) (Bytes.of_string "new!");
             checki "page-in allocates one frame, no copy" (live + 1)
               (Phys.live_frames phys);
             checkb "paged-in PTE carries no COW bit" false (Pte.cow (pte 12)))))
    ()

let test_cow_second_write_no_copy () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      ignore
        (with_flight k ~during:(fun r phys pte ->
             let live = Phys.live_frames phys in
             let shadow_frame = Pte.frame (pte 1) in
             Aurora.Region.write r ~off:4096 (Bytes.of_string "NEW1");
             Aurora.Region.write r ~off:(4096 + 8) (Bytes.of_string "NEW2");
             checki "one copy for two writes" (live + 1) (Phys.live_frames phys);
             checkb "writer moved off the shadow frame" true
               (Pte.frame (pte 1) <> shadow_frame);
             checkb "copy is not in flight" false (Pte.cow (pte 1)))))
    ()

let test_cow_bits_clear_after_collapse () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let _, phys, pte =
        with_flight k ~during:(fun r _ pte ->
            for i = 0 to region_pages - 1 do
              checkb "shadow marks every present PTE" true (Pte.cow (pte i))
            done;
            (* Two dirty (snapshot) pages and one clean page: every
               frame a COW fault orphans is freed at collapse. *)
            List.iter
              (fun i -> Aurora.Region.write r ~off:(i * 4096) (Bytes.of_string "NEW!"))
              [ 0; 2; 9 ])
      in
      for i = 0 to region_pages - 1 do
        checkb "present" true (Pte.present (pte i));
        checkb "COW bit cleared by collapse" false (Pte.cow (pte i))
      done;
      checki "orphaned frames freed" region_pages (Phys.live_frames phys))
    ()

let test_cow_write_in_next_checkpoint () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r, _, pte =
        with_flight k ~during:(fun r _ _ ->
            Aurora.Region.write r ~off:0 (Bytes.of_string "NEW!"))
      in
      let recovered () =
        let& k2 = boot ~format:false dev in
        let r2 = Aurora.Region.create k2 ~name:"r" ~va ~len:(region_pages * 4096) in
        Bytes.to_string (Aurora.Region.read r2 ~off:0 ~len:4)
      in
      checks "flight captured the pre-flight bytes" "old!" (recovered ());
      checkb "written page stays dirty past collapse" true (Pte.writable (pte 0));
      Aurora.Region.checkpoint r;
      checks "next checkpoint carries the new bytes" "NEW!" (recovered ()))
    ()

(* Shadow and collapse rewrite PTE words in place: a 1-page checkpoint of
   a 4096-page region allocates about what one of a 64-page region does,
   instead of a location record and a closure call per present PTE. *)
let test_checkpoint_alloc_independent_of_mapping () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let ckpt_words ~name ~va ~pages =
        let r = Aurora.Region.create k ~name ~va ~len:(pages * 4096) in
        for i = 0 to pages - 1 do
          Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
        done;
        Aurora.Region.checkpoint r;
        Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
        let w0 = Gc.minor_words () in
        Aurora.Region.checkpoint r;
        int_of_float (Gc.minor_words () -. w0)
      in
      let small = ckpt_words ~name:"small" ~va:0x5000_0000 ~pages:64 in
      let big = ckpt_words ~name:"big" ~va:0x6000_0000 ~pages:4096 in
      if big - small > 512 then
        Alcotest.failf "4096-page checkpoint allocates %d words, 64-page %d"
          big small)
    ()

(* Pooled buffers live outside the OCaml heap and nothing reclaims a
   dropped one: a machine that checkpoints (shadow copies in flight
   included), remounts and is disposed must hand every buffer back. *)
let test_disposed_machine_returns_buffers () =
  let before = outstanding () in
  in_dev ~mib:32 (fun dev ->
      let region k = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 256) in
      (let& k = boot ~format:true dev in
       let r = region k in
       for i = 0 to 63 do
         Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
       done;
       Aurora.Region.checkpoint r;
       Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
       Aurora.Region.checkpoint r);
      let& k2 = boot ~format:false dev in
      checks "recovered" "yyyy"
        (Bytes.to_string (Aurora.Region.read (region k2) ~off:0 ~len:4)))
    ();
  checki "outstanding pooled buffers" before (outstanding ())

let test_writes_stall_during_stop_the_world () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      Aurora.Kernel.register_thread k;
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.mib 4) in
      for i = 0 to 1023 do
        Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
      done;
      let c = Sched.spawn (fun () -> Aurora.Region.checkpoint r) in
      Sched.delay 100; (* let the checkpoint stop the world *)
      let t0 = Sched.now () in
      Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
      let stalled = Sched.now () - t0 in
      Sched.join c;
      checkb "writer stalled through shadowing" true (stalled > 1_000))
    ()

let test_flat_combining () =
  in_dev ~mib:32 (fun dev ->
      let& k = boot ~format:true dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      let done_count = ref 0 in
      let ts =
        List.init 8 (fun i ->
            Sched.spawn (fun () ->
                Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'z');
                Aurora.Region.checkpoint r;
                incr done_count))
      in
      List.iter Sched.join ts;
      checki "all callers complete" 8 !done_count)
    ()

(* Two threads checkpoint one region and the power fails mid-round
   (both checkpoints are durable by 60 us): both callers catch
   [Powered_off], neither is left parked. Nothing is disposed (the cut
   leaves buffers mid-transfer). *)
let test_checkpoint_power_cut () =
  List.iter
    (fun cut_us ->
      let failed =
        Sched.run (fun () ->
            let dev = Device.testbed ~mib:32 in
            let k = Aurora.Kernel.boot ~format:true dev in
            let r =
              Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64)
            in
            let failed = ref 0 in
            let ts =
              List.init 2 (fun i ->
                  Sched.spawn (fun () ->
                      Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'z');
                      try Aurora.Region.checkpoint r
                      with Disk.Powered_off -> incr failed))
            in
            Sched.delay (cut_us * 1000);
            Device.fail_power dev ~torn_seed:1;
            List.iter Sched.join ts;
            !failed)
      in
      checki (Printf.sprintf "cut at %d us fails both callers" cut_us) 2 failed)
    [ 5; 20; 50 ]

(* One seeded run: checkpoint rounds of random dirty pages over a
   2,048-page region, then a reboot that reads the first byte of every
   page back. Returns the final simulated time and what was recovered. *)
let checkpoint_rounds seed =
  let result = ref (0, "") in
  Sched.run (fun () ->
      let& dev = testbed ~mib:32 in
      let& k = boot ~format:true dev in
      let len = Size.mib 8 in
      let pages = len / 4096 in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len in
      let rng = Random.State.make [| seed |] in
      for round = 1 to 60 do
        for _ = 1 to 24 do
          let p = Random.State.int rng pages in
          Aurora.Region.write r ~off:(p * 4096)
            (Bytes.make 1 (Char.chr (round land 0xff)))
        done;
        Aurora.Region.checkpoint r
      done;
      let t = Sched.now () in
      let& k2 = boot ~format:false dev in
      let r2 = Aurora.Region.create k2 ~name:"r" ~va:0x5000_0000 ~len in
      let seen = Buffer.create pages in
      for p = 0 to pages - 1 do
        Buffer.add_bytes seen (Aurora.Region.read r2 ~off:(p * 4096) ~len:1)
      done;
      result := (t, Buffer.contents seen));
  !result

(* Bench cells checkpoint on several domains at once, so each region
   owns the scratch its shadow pass lists dirty slots into. Runs on two
   domains at once must match the same runs done one after the other. *)
let test_regions_on_two_domains () =
  let seeds = [ 11; 12 ] in
  let serial = List.map checkpoint_rounds seeds in
  for _ = 1 to 3 do
    let ds = List.map (fun s -> Domain.spawn (fun () -> checkpoint_rounds s)) seeds in
    List.iter2
      (fun want d ->
        let t, seen = Domain.join d in
        checki "same simulated time" (fst want) t;
        checkb "same recovered pages" true (String.equal (snd want) seen))
      serial ds
  done

let test_app_checkpoint_slower_than_region () =
  in_dev ~mib:32 (fun dev ->
      let& k = (Aurora.Kernel.boot ~format:true dev, Aurora.Kernel.dispose) in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 256) in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'a');
      Aurora.Region.checkpoint r;
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'b');
      let t0 = Sched.now () in
      Aurora.Region.checkpoint r;
      let region_ns = Sched.now () - t0 in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'c');
      let t1 = Sched.now () in
      Aurora.checkpoint_app k;
      let app_ns = Sched.now () - t1 in
      checkb "app checkpoint order of magnitude slower" true (app_ns > 5 * region_ns))
    ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "aurora"
    [
      ( "region",
        [
          tc "write/read" test_region_write_read;
          tc "checkpoint persists" test_checkpoint_persists;
          tc "incremental" test_incremental_checkpoint;
        ] );
      ( "shadowing",
        [
          tc "breakdown phases" test_breakdown_phases;
          tc "cost scales with mapping" test_shadow_cost_scales_with_mapping;
          tc "cow during flight" test_cow_during_flight;
          tc "cow: page-in after shadow" test_cow_page_in_after_shadow;
          tc "cow: second write no copy" test_cow_second_write_no_copy;
          tc "cow: bits clear after collapse" test_cow_bits_clear_after_collapse;
          tc "cow: write in next checkpoint" test_cow_write_in_next_checkpoint;
          tc "checkpoint alloc independent of mapping"
            test_checkpoint_alloc_independent_of_mapping;
          tc "stop-the-world stalls writers" test_writes_stall_during_stop_the_world;
          tc "flat combining" test_flat_combining;
          tc "power cut fails every caller" test_checkpoint_power_cut;
          tc "regions on two domains" test_regions_on_two_domains;
          tc "disposed machine returns buffers" test_disposed_machine_returns_buffers;
        ] );
      ("app", [ tc "app ckpt slower" test_app_checkpoint_slower_than_region ]);
    ]
