(* Microbenchmark experiments: Table 6 (persistence API latency), Fig. 1
   (page-protection strategies), Table 5 (msnap_persist breakdown),
   Table 2 / Table 10 (Aurora vs MemSnap cost structure), Fig. 3
   (checkpoint latency vs dirty-set size). *)

open Env
module Protect = Msnap_vm.Protect
module Ptable = Msnap_vm.Ptable
module Slice = Msnap_util.Slice

let page = 4096

(* --- Table 6 --- *)

let sizes_small = [ 4; 8; 16; 32; 64 ] (* KiB, where direct IO is measured *)
let sizes_all = [ 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

let direct_disk_latency kib =
  Sched.run (fun () ->
      let dev = mk_dev () in
      let rng = Rng.create 1 in
      (* One shared payload for every iteration: contents are irrelevant
         (charges depend only on length, nothing reads the device back),
         and it is lent but never mutated, so reuse is host-only. *)
      let payload = Slice.of_bytes (Bytes.create (Size.kib kib)) in
      time_mean ~iters:10 (fun () ->
          let off =
            Rng.int rng (Device.size dev / Size.kib kib) * Size.kib kib
          in
          Device.write_slice dev ~off payload))

(* write + fsync of [kib] KiB, sequential append or random 4 KiB pages
   into a large cold file. *)
let fsync_latency kind ~pattern kib =
  Sched.run (fun () ->
      let _, fs = mk_fs kind in
      Fs.set_cache_capacity fs 16;
      let f = Fs.open_file fs "bench" in
      let file_mib = 128 in
      (* Preallocate so random writes RMW cold blocks. *)
      let block = Bytes.make (Fs.fs_block_size fs) 'p' in
      for i = 0 to (Size.mib file_mib / Fs.fs_block_size fs) - 1 do
        Fs.write fs f ~off:(i * Fs.fs_block_size fs) block;
        if i mod 4 = 3 then Fs.fsync fs f
      done;
      Fs.fsync fs f;
      let rng = Rng.create 2 in
      let cursor = ref 0 in
      (* Shared workload buffers: Fs.write copies into the buffer cache,
         so reusing one payload across iterations is host-only. *)
      let seq_buf = Bytes.create (Size.kib kib) in
      let page_buf = Bytes.create page in
      let one () =
        (match pattern with
        | `Seq ->
          Fs.write fs f ~off:!cursor seq_buf;
          cursor := (!cursor + Size.kib kib) mod Size.mib file_mib
        | `Random ->
          for _ = 1 to Size.kib kib / page do
            let off = Rng.int rng (Size.mib file_mib / page) * page in
            Fs.write fs f ~off page_buf
          done);
        (* The bench plays the application here, so the fsync under test
           carries the app-level probe (db category in traces). *)
        Metrics.timed Probe.db_fsync (fun () -> Fs.fsync fs f)
      in
      time_mean ~iters:8 one)

let memsnap_latency ~mode kib =
  Sched.run (fun () ->
      let _, k = mk_msnap () in
      let region_pages = 65536 in
      let md = Msnap.open_region k ~name:"bench" ~len:(region_pages * page) () in
      let rng = Rng.create 3 in
      (* Time the msnap_persist call itself (the dirtying stores are the
         application's in-memory work, like the paper's methodology). *)
      let total = ref 0 in
      let iters = 8 in
      for _ = 1 to iters do
        dirty_random_pages k md rng ~region_pages ~pages:(Size.kib kib / page);
        let t0 = Sched.now () in
        Metrics.timed Probe.db_memsnap (fun () ->
            match mode with
            | `Sync -> ignore (Msnap.persist k ~region:md ())
            | `Async -> ignore (Msnap.persist k ~region:md ~mode:`Async ()));
        total := !total + (Sched.now () - t0);
        Sched.delay 5_000_000 (* drain async IO between iterations *)
      done;
      !total / iters)

let table6 () =
  section "Table 6: latency of persistence APIs (us)";
  let t =
    Tbl.create ~title:"write+flush latency by API"
      ~headers:
        [ "Size"; "Disk"; "FFS seq"; "ZFS seq"; "FFS rand"; "ZFS rand";
          "memsnap sync"; "memsnap async" ]
  in
  (* Every measurement is an independent simulation: declare the whole
     row-major grid as cells up front (71 of them), then force in the
     same order to print. The pool runs them concurrently; values and
     output are identical to the serial nested loop. *)
  let rows =
    List.map
      (fun kib ->
        let direct =
          if List.mem kib sizes_small then
            Some (cell (fun () -> direct_disk_latency kib))
          else None
        in
        let ffs_seq = cell (fun () -> fsync_latency Fs.Ffs ~pattern:`Seq kib) in
        let zfs_seq = cell (fun () -> fsync_latency Fs.Zfs ~pattern:`Seq kib) in
        let ffs_rand =
          cell (fun () -> fsync_latency Fs.Ffs ~pattern:`Random kib)
        in
        let zfs_rand =
          cell (fun () -> fsync_latency Fs.Zfs ~pattern:`Random kib)
        in
        let ms_sync = cell (fun () -> memsnap_latency ~mode:`Sync kib) in
        let ms_async = cell (fun () -> memsnap_latency ~mode:`Async kib) in
        (kib, direct, [ ffs_seq; zfs_seq; ffs_rand; zfs_rand; ms_sync; ms_async ]))
      sizes_all
  in
  List.iter
    (fun (kib, direct, cells) ->
      let direct =
        match direct with
        | Some c -> Tbl.us_short (force c)
        | None -> "N/A"
      in
      Tbl.row t
        (Size.pp (Size.kib kib) :: direct
        :: List.map (fun c -> Tbl.us_short (force c)) cells))
    rows;
  Tbl.note t "paper (4K): disk 17, FFS seq 70, ZFS seq 64, FFS rand 156, ZFS rand 232, memsnap 34/6";
  Tbl.note t "paper (64K): disk 44, FFS seq 134, ZFS seq 137, FFS rand 1.9K, ZFS rand 2.9K, memsnap 50/6";
  print_table t

(* --- Figure 1 --- *)

let fig1 () =
  section "Figure 1: re-protecting the dirty set (1 GiB mapping)";
  let t =
    Tbl.create ~title:"protection reset latency (us)"
      ~headers:[ "Dirty set"; "scan mapping"; "per-page walk"; "trace buffer" ]
  in
  let mapping_pages = 262144 (* 1 GiB *) in
  let run strategy dirty_pages =
    Sched.run (fun () ->
        let phys = Phys.create () in
        Sched.on_exit (fun () -> Phys.dispose phys);
        let a = Aspace.create phys in
        let va = 0x4000_0000_0000 in
        let dirty = ref [] in
        let handler (f : Aspace.fault) =
          Msnap_vm.Ptloc.set f.Aspace.f_loc
            (Msnap_vm.Pte.set_writable (Msnap_vm.Ptloc.get f.Aspace.f_loc) true);
          dirty := (f.Aspace.f_vpn, f.Aspace.f_loc) :: !dirty
        in
        ignore
          (Aspace.map a ~name:"m" ~va ~len:(mapping_pages * page)
             ~new_pages_writable:false ~on_write_fault:handler ());
        (* Instantiate the mapping's page-table leaves the way a resident
           1 GiB heap would have them, without materializing 1 GiB of
           frames. *)
        let pt = Aspace.page_table a in
        let base_vpn = Addr.vpn_of_va va in
        for leaf = 0 to (mapping_pages / 512) - 1 do
          ignore (Ptable.walk pt (base_vpn + (leaf * 512)))
        done;
        let stride = mapping_pages / dirty_pages in
        for i = 0 to dirty_pages - 1 do
          Aspace.write a ~va:(va + (i * stride * page)) (Bytes.make 8 'd')
        done;
        let d = List.rev !dirty in
        let t0 = Sched.now () in
        ignore
          (match strategy with
          | `Scan -> Protect.scan_mapping a ~mapping_va:va ~mapping_len:(mapping_pages * page) d
          | `Walk -> Protect.per_page_walk a d
          | `Trace -> Protect.trace_buffer a d);
        Sched.now () - t0)
  in
  List.iter
    (fun dirty_kib ->
      let pages = Size.kib dirty_kib / page in
      Tbl.row t
        [
          Size.pp (Size.kib dirty_kib);
          Tbl.us_short (run `Scan pages);
          Tbl.us_short (run `Walk pages);
          Tbl.us_short (run `Trace pages);
        ])
    [ 4; 64; 512; 4096 ];
  Tbl.note t "paper: baseline large even for 4 KiB; per-page grows with the dirty set; trace buffer ~nothing";
  print_table t

(* --- Table 5 --- *)

let table5 () =
  section "Table 5: breakdown of msnap_persist (64 KiB dirty)";
  Sched.run (fun () ->
      let _, k = mk_msnap () in
      let region_pages = 65536 in
      let md = Msnap.open_region k ~name:"bench" ~len:(region_pages * page) () in
      let rng = Rng.create 4 in
      for _ = 1 to 20 do
        dirty_random_pages k md rng ~region_pages ~pages:16;
        ignore (Msnap.persist k ~region:md ())
      done;
      let t =
        Tbl.create ~title:"msnap_persist phases"
          ~headers:[ "Operation"; "mean (us)"; "paper (us)" ]
      in
      Tbl.row t [ "Resetting tracking"; Tbl.us (int_of_float (Metrics.mean_ns Probe.msnap_persist_reset)); "5.1" ];
      Tbl.row t [ "Initiating writes"; Tbl.us (int_of_float (Metrics.mean_ns Probe.msnap_persist_initiate)); "6.5" ];
      Tbl.row t [ "Waiting on IO"; Tbl.us (int_of_float (Metrics.mean_ns Probe.msnap_persist_wait)); "39.7" ];
      Tbl.row t [ "Total"; Tbl.us (int_of_float (Metrics.mean_ns Probe.msnap_persist_total)); "51.4" ];
      print_table t)

(* --- Table 2 / Table 10 --- *)

(* A populated Aurora region checkpointing a 64 KiB dirty set: one run,
   shared by Table 2 and Table 10. *)
let aurora_breakdown =
  shared @@ fun () ->
  Sched.run (fun () ->
      let k = mk_aurora () in
      (* The paper measures during RocksDB's 12-thread dbbench: the stall
         pays one safe-point round-trip per application thread. *)
      for _ = 1 to 12 do
        Aurora.Kernel.register_thread k
      done;
      let pages = 4096 in
      let r =
        Aurora.Region.create k ~name:"bench" ~va:0x5000_0000_0000
          ~len:(pages * page)
      in
      for i = 0 to pages - 1 do
        Aurora.Region.write r ~off:(i * page) (Bytes.make 16 'p')
      done;
      Aurora.Region.checkpoint r;
      let rng = Rng.create 5 in
      for _ = 1 to 5 do
        for _ = 1 to 16 do
          Aurora.Region.write r ~off:(Rng.int rng pages * page) (Bytes.make 64 'd')
        done;
        Aurora.Region.checkpoint r
      done;
      match Aurora.Region.last_breakdown r with
      | Some b -> b
      | None -> failwith "no breakdown")

let table2 () =
  section "Table 2: Aurora region checkpoint breakdown (64 KiB dirty)";
  let b = force (aurora_breakdown ()) in
  let t = Tbl.create ~title:"latency by phase" ~headers:[ "Phase"; "us"; "paper (us)" ] in
  Tbl.row t [ "Waiting for calls (stall)"; Tbl.us b.Aurora.Region.stall; "26.7" ];
  Tbl.row t [ "Applying COW (shadowing)"; Tbl.us b.Aurora.Region.shadow; "79.8" ];
  Tbl.row t [ "Flush IO"; Tbl.us b.Aurora.Region.io; "27.9" ];
  Tbl.row t [ "Removing COW (collapse)"; Tbl.us b.Aurora.Region.collapse; "91.7" ];
  Tbl.row t
    [ "Total";
      Tbl.us (b.Aurora.Region.stall + b.Aurora.Region.shadow + b.Aurora.Region.io + b.Aurora.Region.collapse);
      "208.1" ];
  print_table t

let table10 () =
  section "Table 10: MemSnap vs Aurora persistence cost";
  let aurora = aurora_breakdown () in
  let ms_reset, ms_io, ms_total =
    Sched.run (fun () ->
        let _, k = mk_msnap () in
        let md = Msnap.open_region k ~name:"bench" ~len:(65536 * page) () in
        let rng = Rng.create 6 in
        for _ = 1 to 20 do
          dirty_random_pages k md rng ~region_pages:65536 ~pages:16;
          ignore (Msnap.persist k ~region:md ())
        done;
        ( Metrics.mean_ns Probe.msnap_persist_reset,
          Metrics.mean_ns Probe.msnap_persist_wait,
          Metrics.mean_ns Probe.msnap_persist_total ))
  in
  let b = force aurora in
  let t =
    Tbl.create ~title:"64 KiB persist, per phase (us)"
      ~headers:[ "Operation"; "MemSnap"; "Aurora" ]
  in
  let us_f v = Tbl.us (int_of_float v) in
  Tbl.row t [ "Waiting for calls"; "N/A"; Tbl.us b.Aurora.Region.stall ];
  Tbl.row t [ "Applying COW"; us_f ms_reset; Tbl.us b.Aurora.Region.shadow ];
  Tbl.row t [ "Flush IO"; us_f ms_io; Tbl.us b.Aurora.Region.io ];
  Tbl.row t [ "Removing COW"; "N/A"; Tbl.us b.Aurora.Region.collapse ];
  Tbl.row t
    [ "Total"; us_f ms_total;
      Tbl.us (b.Aurora.Region.stall + b.Aurora.Region.shadow + b.Aurora.Region.io + b.Aurora.Region.collapse) ];
  Tbl.note t "paper: memsnap 5.1 / 46.3 / 51.4; aurora 26.7 / 79.8 / 27.9 / 91.7 / 208.1";
  print_table t

(* --- Figure 3 --- *)

let fig3 () =
  section "Figure 3: MemSnap vs Aurora checkpointing latency";
  let t =
    Tbl.create ~title:"synchronous persist latency (us), random dirty sets"
      ~headers:[ "Dirty set"; "memsnap"; "aurora region"; "aurora app" ]
  in
  let region_pages = 8192 (* 32 MiB populated *) in
  let memsnap_t dirty_pages =
    Sched.run (fun () ->
        let _, k = mk_msnap () in
        let md = Msnap.open_region k ~name:"bench" ~len:(region_pages * page) () in
        (* populate *)
        for i = 0 to region_pages - 1 do
          Msnap.write k md ~off:(i * page) (Bytes.make 16 'p')
        done;
        ignore (Msnap.persist k ~region:md ());
        let rng = Rng.create 7 in
        time_mean ~iters:5 (fun () ->
            dirty_random_pages k md rng ~region_pages ~pages:dirty_pages;
            ignore (Msnap.persist k ~region:md ())))
  in
  let aurora_t ~app dirty_pages =
    Sched.run (fun () ->
        let k = mk_aurora () in
        Aurora.Kernel.register_thread k;
        let r =
          Aurora.Region.create k ~name:"bench" ~va:0x5000_0000_0000
            ~len:(region_pages * page)
        in
        for i = 0 to region_pages - 1 do
          Aurora.Region.write r ~off:(i * page) (Bytes.make 16 'p')
        done;
        Aurora.Region.checkpoint r;
        let rng = Rng.create 8 in
        time_mean ~iters:5 (fun () ->
            let chosen = Hashtbl.create dirty_pages in
            while Hashtbl.length chosen < dirty_pages do
              Hashtbl.replace chosen (Rng.int rng region_pages) ()
            done;
            Hashtbl.iter
              (fun p () -> Aurora.Region.write r ~off:(p * page) (Bytes.make 64 'd'))
              chosen;
            if app then Aurora.checkpoint_app k else Aurora.Region.checkpoint r))
  in
  let rows =
    List.map
      (fun kib ->
        let pages = Size.kib kib / page in
        let ms = cell (fun () -> memsnap_t pages) in
        let au_region = cell (fun () -> aurora_t ~app:false pages) in
        let au_app = cell (fun () -> aurora_t ~app:true pages) in
        (kib, [ ms; au_region; au_app ]))
      [ 4; 16; 64; 256; 1024 ]
  in
  List.iter
    (fun (kib, cells) ->
      Tbl.row t
        (Size.pp (Size.kib kib) :: List.map (fun c -> Tbl.us_short (force c)) cells))
    rows;
  Tbl.note t "paper: memsnap ~7x faster than region ckpt (small IOs), up to 60x vs app ckpt";
  print_table t
