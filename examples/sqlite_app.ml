(* An embedded SQL-style database on the MemSnap plugin (§7.1).

   The same B-tree storage engine runs over either persistence backend;
   here we use the MemSnap one: the database file is a persistent region,
   every transaction commit is a μCheckpoint, and there is no WAL file and
   no checkpointing. We run a small order-management app, compare the
   system-call profile against the file-API baseline, and recover after a
   crash.

   Run with: dune exec examples/sqlite_app.exe *)

module Sched = Msnap_sim.Sched
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Device = Msnap_blockdev.Device
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Db = Msnap_sqlite.Db
module Backend_wal = Msnap_sqlite.Backend_wal
module Backend_msnap = Msnap_sqlite.Backend_msnap

let say fmt = Printf.printf (fmt ^^ "\n%!")

let app_workload db =
  let orders = Db.create_table db "orders" in
  let customers = Db.create_table db "customers" in
  for c = 0 to 49 do
    Db.with_write_txn db (fun () ->
        Db.put customers ~key:(Db.key_of_int c) ~value:(Printf.sprintf "customer-%d" c))
  done;
  for o = 0 to 499 do
    Db.with_write_txn db (fun () ->
        Db.put orders ~key:(Db.key_of_int o)
          ~value:(Printf.sprintf "order %d by customer %d" o (o mod 50)))
  done

(* Each configuration is its own simulation: [Metrics] counts what the
   run it is read in recorded. *)
let () =
  (Sched.run @@ fun () ->
   (* Baseline: WAL file + checkpoints over the file API. *)
   let wal_dev = Device.testbed ~mib:128 in
   Sched.on_exit (fun () -> Device.dispose wal_dev);
   let fs = Fs.mkfs wal_dev ~kind:Fs.Ffs in
   Sched.on_exit (fun () -> Fs.dispose fs);
   let bw = Backend_wal.create fs ~db_name:"app.db" () in
   Sched.on_exit (fun () -> Backend_wal.dispose bw);
   let wal_db = Db.open_db (Backend_wal.backend bw) in
   Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager wal_db));
   app_workload wal_db;
   say "baseline (WAL+checkpoint): %4d fsync, %5d write, mean fsync %.0f us"
     (Metrics.count Probe.db_fsync) (Metrics.count Probe.db_write)
     (Metrics.mean_ns Probe.db_fsync /. 1e3));

  Sched.run @@ fun () ->
  (* MemSnap plugin: same storage engine, no files. *)
  let dev = Device.testbed ~mib:128 in
  Sched.on_exit (fun () -> Device.dispose dev);
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let be = Backend_msnap.create k ~db_name:"app.db" ~max_pages:16384 in
  let ms_db = Db.open_db (Backend_msnap.backend be) in
  Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager ms_db));
  app_workload ms_db;
  say "memsnap plugin:            %4d msnap_persist, %d fsync, mean persist %.0f us"
    (Metrics.count Probe.db_memsnap) (Metrics.count Probe.db_fsync)
    (Metrics.mean_ns Probe.db_memsnap /. 1e3);

  say "== crash and recover the memsnap database ==";
  Device.fail_power dev ~torn_seed:99;
  Device.restore_power dev;
  let k2 = Msnap.boot ~format:false dev in
  Sched.on_exit (fun () -> Msnap.dispose k2);
  let be2 = Backend_msnap.create k2 ~db_name:"app.db" ~max_pages:16384 in
  let db2 = Db.open_db (Backend_msnap.backend be2) in
  Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager db2));
  let orders = Option.get (Db.table db2 "orders") in
  say "orders recovered: %d rows; order 123 = %S" (Db.count orders)
    (Option.get (Db.get orders (Db.key_of_int 123)));
  assert (Db.count orders = 500)
