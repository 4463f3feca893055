(* A bank ledger with fearless persistence.

   Every account lives on its own page of a MemSnap region (property ②);
   a transfer dirties exactly two pages and commits them atomically with
   one msnap_persist — multi-page atomicity that fsync cannot give
   (§2: "file systems lack the ability to atomically update multiple
   files"). We hammer the ledger with concurrent transfers, crash the
   machine mid-flight, recover, and check that money was neither created
   nor destroyed.

   Run with: dune exec examples/bank_ledger.exe *)

module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Rng = Msnap_util.Rng
module Device = Msnap_blockdev.Device
module Msnap = Msnap_core.Msnap

let say fmt = Printf.printf (fmt ^^ "\n%!")

let accounts = 32
let initial_balance = 1_000
let page = 4096

let read_balance k md acct =
  Int64.to_int (Bytes.get_int64_le (Msnap.read k md ~off:(acct * page) ~len:8) 0)

let write_balance k md acct v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Msnap.write k md ~off:(acct * page) b

let total k md =
  let sum = ref 0 in
  for a = 0 to accounts - 1 do
    sum := !sum + read_balance k md a
  done;
  !sum

let () =
  Sched.run @@ fun () ->
  let dev = Device.testbed ~mib:64 in
  Sched.on_exit (fun () -> Device.dispose dev);
  (* [k] loses power mid-run, so it registers no teardown: buffer
     ownership may be mid-transfer. *)
  let k = Msnap.boot ~format:true dev in
  let md = Msnap.open_region k ~name:"ledger" ~len:(accounts * page) () in

  (* Fund the accounts and persist the opening state. *)
  for a = 0 to accounts - 1 do
    write_balance k md a initial_balance
  done;
  ignore (Msnap.persist k ~region:md ());
  say "opened %d accounts, total %d" accounts (total k md);

  (* Concurrent tellers transfer money. Each account has a lock (property
     ③: an account page is not re-dirtied while its μCheckpoint could be
     pending), and each transfer is one atomic two-page μCheckpoint. *)
  let locks = Array.init accounts (fun _ -> Sync.Mutex.create ()) in
  let transfers_done = ref 0 in
  let teller id =
    let rng = Rng.create (900 + id) in
    try
      while true do
        let a = Rng.int rng accounts in
        let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
        let lo, hi = (min a b, max a b) in
        Sync.Mutex.lock locks.(lo);
        Sync.Mutex.lock locks.(hi);
        (* Release the account locks even when the power fails mid-
           transfer, so the other tellers can observe the outage too. *)
        Fun.protect
          ~finally:(fun () ->
            Sync.Mutex.unlock locks.(hi);
            Sync.Mutex.unlock locks.(lo))
          (fun () ->
            let amount = 1 + Rng.int rng 50 in
            let ba = read_balance k md a in
            if ba >= amount then begin
              write_balance k md a (ba - amount);
              write_balance k md b (read_balance k md b + amount);
              ignore (Msnap.persist k ~region:md ());
              incr transfers_done
            end)
      done
    with Msnap_blockdev.Disk.Powered_off -> ()
  in
  let tellers = List.init 4 (fun i -> Sched.spawn ~name:"teller" (fun () -> teller i)) in

  (* Let them run, then pull the plug mid-transfer. *)
  Sched.delay 40_000_000;
  say "crash after %d acknowledged transfers..." !transfers_done;
  Device.fail_power dev ~torn_seed:7;
  List.iter Sched.join tellers;
  Device.restore_power dev;

  let k2 = Msnap.boot ~format:false dev in
  Sched.on_exit (fun () -> Msnap.dispose k2);
  let md2 = Msnap.open_region k2 ~name:"ledger" ~len:(accounts * page) () in
  let recovered = total k2 md2 in
  say "recovered total: %d (expected %d) -> %s" recovered
    (accounts * initial_balance)
    (if recovered = accounts * initial_balance then "conserved: no torn transfer"
     else "MONEY LEAKED - atomicity violated!");
  assert (recovered = accounts * initial_balance)
