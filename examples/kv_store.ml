(* A WAL-free key-value store (the §7.2 design, as a library user).

   The RocksDB case-study backend is reusable on its own: a persistent
   skip list in a MemSnap region, one μCheckpoint per write batch, no
   write-ahead log, no SSTables, no compaction. This example runs a small
   update-heavy workload, crashes, recovers (rebuilding the skip-pointer
   index from the persisted linked list) and verifies the data.

   Run with: dune exec examples/kv_store.exe *)

module Sched = Msnap_sim.Sched
module Device = Msnap_blockdev.Device
module Msnap = Msnap_core.Msnap
module Rocks = Msnap_rocks.Rocks

let say fmt = Printf.printf (fmt ^^ "\n%!")

let config = { Rocks.default_config with region_pages = 8192 }

let () =
  Sched.run @@ fun () ->
  let dev = Device.testbed ~mib:128 in
  Sched.on_exit (fun () -> Device.dispose dev);
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let db = Rocks.open_db ~config (Rocks.Memsnap k) ~name:"kv" in

  say "== loading 1000 keys (each put is one durable μCheckpoint) ==";
  let t0 = Sched.now () in
  for i = 0 to 999 do
    Rocks.put db ~key:(Printf.sprintf "user:%04d" i)
      ~value:(Printf.sprintf "{\"id\": %d, \"visits\": 0}" i)
  done;
  say "loaded in %.2f ms of simulated time (%.1f us per durable put)"
    (float_of_int (Sched.now () - t0) /. 1e6)
    (float_of_int (Sched.now () - t0) /. 1e3 /. 1000.);

  (* Atomic multi-key transaction: a WriteCommitted batch is one
     μCheckpoint. *)
  Rocks.put_batch db
    [ ("user:0001", "{\"id\": 1, \"visits\": 7}");
      ("user:0002", "{\"id\": 2, \"visits\": 3}");
      ("audit:last", "updated 1 and 2 together") ];
  say "batch committed atomically";

  (* Ordered scans work straight off the persistent skip list. *)
  let window = Rocks.seek db "user:0500" ~n:3 in
  say "seek(user:0500, 3):";
  List.iter (fun (key, v) -> say "  %s -> %s" key v) window;

  say "== crash ==";
  Device.fail_power dev ~torn_seed:3;
  Device.restore_power dev;

  say "== recover: remount the store, remap the region, rebuild skip pointers ==";
  let t0 = Sched.now () in
  let k2 = Msnap.boot ~format:false dev in
  Sched.on_exit (fun () -> Msnap.dispose k2);
  let db2 = Rocks.recover ~config k2 ~name:"kv" in
  say "recovered %d keys in %.2f ms" (Rocks.count db2)
    (float_of_int (Sched.now () - t0) /. 1e6);
  say "user:0001 = %s" (Option.get (Rocks.get db2 "user:0001"));
  say "audit:last = %s" (Option.get (Rocks.get db2 "audit:last"));
  assert (Rocks.count db2 = 1001)
