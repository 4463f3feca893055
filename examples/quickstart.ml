(* Quickstart: the MemSnap API in five minutes.

   Build a simulated machine, open a persistent region, modify it in
   place, persist with one call, pull the plug, and recover — no file API,
   no WAL, pointers intact.

   Run with: dune exec examples/quickstart.exe *)

module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Device = Msnap_blockdev.Device
module Msnap = Msnap_core.Msnap

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  Sched.run @@ fun () ->
  (* One "machine": two striped NVMe devices; booting adds physical
     memory and a process. *)
  let dev = Device.testbed ~mib:64 in
  (* Teardown is host-only: it hands the machine's buffers back when the
     simulation ends. *)
  Sched.on_exit (fun () -> Device.dispose dev);

  say "== first boot ==";
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);

  (* msnap_open: create a persistent region. It gets a fixed virtual
     address, so pointers into it stay valid across reboots. *)
  let md = Msnap.open_region k ~name:"my-data" ~len:(Size.kib 256) () in
  say "region %S mapped at 0x%x (%s)" (Msnap.name md) (Msnap.addr md)
    (Size.pp (Msnap.length md));

  (* Modify memory in place. The kernel tracks the dirty pages of this
     thread transparently — no write() calls, no logging code. *)
  Msnap.write_string k md ~off:0 "balance=100";
  Msnap.write_string k md ~off:4096 "audit: opened account";
  say "dirtied %d pages by plain stores" (Msnap.dirty_count k);

  (* msnap_persist: one call makes the transaction durable, atomically. *)
  let t0 = Sched.now () in
  let epoch = Msnap.persist k ~region:md () in
  say "persisted as epoch %d in %.1f us" epoch
    (float_of_int (Sched.now () - t0) /. 1e3);

  (* More work that we do NOT persist... *)
  Msnap.write_string k md ~off:0 "balance=999999";
  say "uncommitted tamper in memory: %S"
    (Bytes.to_string (Msnap.read k md ~off:0 ~len:14));

  say "== power failure! ==";
  Device.fail_power dev ~torn_seed:42;
  Device.restore_power dev;

  say "== reboot and recover ==";
  let k2 = Msnap.boot ~format:false dev in
  Sched.on_exit (fun () -> Msnap.dispose k2);
  let md2 = Msnap.open_region k2 ~name:"my-data" ~len:(Size.kib 256) () in
  say "region recovered at 0x%x (same address: %b)" (Msnap.addr md2)
    (Msnap.addr md2 = Msnap.addr md);
  say "page 0: %S" (Bytes.to_string (Msnap.read k2 md2 ~off:0 ~len:11));
  say "page 1: %S" (Bytes.to_string (Msnap.read k2 md2 ~off:4096 ~len:21));
  say "the persisted epoch survived; the tamper did not."
