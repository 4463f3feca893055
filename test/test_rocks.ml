module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora
module Skiplist = Msnap_rocks.Skiplist
module Pskiplist = Msnap_rocks.Pskiplist
module Sstable = Msnap_rocks.Sstable
module Lsm = Msnap_rocks.Lsm
module Rocks = Msnap_rocks.Rocks
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))
let in_sim f () = Sched.run f

(* --- volatile skiplist --- *)

let test_skiplist_basic () =
  in_sim (fun () ->
      let s = Skiplist.create () in
      Skiplist.insert s ~key:"b" ~value:"2";
      Skiplist.insert s ~key:"a" ~value:"1";
      Skiplist.insert s ~key:"c" ~value:"3";
      check_opt "find" (Some "2") (Skiplist.find s "b");
      check_opt "missing" None (Skiplist.find s "x");
      checki "count" 3 (Skiplist.count s);
      Skiplist.insert s ~key:"b" ~value:"22";
      check_opt "updated" (Some "22") (Skiplist.find s "b");
      checki "no dup" 3 (Skiplist.count s);
      checkb "delete" true (Skiplist.delete s "a");
      checkb "delete missing" false (Skiplist.delete s "a");
      checki "after delete" 2 (Skiplist.count s))
    ()

let test_skiplist_order () =
  in_sim (fun () ->
      let s = Skiplist.create () in
      let rng = Rng.create 5 in
      let keys = Array.init 2000 (fun i -> Printf.sprintf "%08d" i) in
      Rng.shuffle rng keys;
      Array.iter (fun k -> Skiplist.insert s ~key:k ~value:k) keys;
      let prev = ref "" in
      let ordered = ref true in
      Skiplist.iter s (fun k _ ->
          if k <= !prev then ordered := false;
          prev := k);
      checkb "sorted" true !ordered;
      checki "count" 2000 (Skiplist.count s);
      (* iter_from starts at the bound. *)
      let first = ref "" in
      Skiplist.iter_from s "00001000" (fun k _ ->
          first := k;
          false);
      Alcotest.(check string) "lower bound" "00001000" !first)
    ()

let prop_skiplist_model =
  QCheck.Test.make ~count:60 ~name:"skiplist agrees with Map model"
    QCheck.(list_of_size Gen.(int_range 1 300)
              (pair (int_bound 200) (option (int_bound 1000))))
    (fun ops ->
      Sched.run (fun () ->
          let module M = Map.Make (String) in
          let s = Skiplist.create () in
          let model = ref M.empty in
          List.iter
            (fun (k, v) ->
              let key = Printf.sprintf "%06d" k in
              match v with
              | Some v ->
                Skiplist.insert s ~key ~value:(string_of_int v);
                model := M.add key (string_of_int v) !model
              | None ->
                ignore (Skiplist.delete s key);
                model := M.remove key !model)
            ops;
          M.for_all (fun k v -> Skiplist.find s k = Some v) !model
          && Skiplist.count s = M.cardinal !model))

(* Reference MemTable: the original option-boxed skip list, kept
   verbatim as the oracle for the sentinel-node rewrite. Same RNG
   stream (same seed, one [Rng.int _ 4] run per fresh insert), so the
   tower heights — and therefore every [Sched.cpu] probe charge — must
   line up exactly with the production structure. *)
module Ref_skiplist = struct
  let max_level = 12

  type node = {
    key : string;
    mutable value : string;
    mutable deleted : bool;
    next : node option array;
  }

  type t = {
    head : node;
    rng : Rng.t;
    mutable level : int;
    mutable count : int;
    mutable bytes : int;
  }

  let hop_cost = 25

  let create ?(seed = 0x5C1B) () =
    {
      head = { key = ""; value = ""; deleted = false;
               next = Array.make max_level None };
      rng = Rng.create seed;
      level = 1;
      count = 0;
      bytes = 0;
    }

  let random_level t =
    let rec go l = if l < max_level && Rng.int t.rng 4 = 0 then go (l + 1) else l in
    go 1

  let find_path t key =
    let update = Array.make max_level t.head in
    let x = ref t.head in
    for lvl = t.level - 1 downto 0 do
      let continue_ = ref true in
      while !continue_ do
        Sched.cpu hop_cost;
        match !x.next.(lvl) with
        | Some n when n.key < key -> x := n
        | Some _ | None -> continue_ := false
      done;
      update.(lvl) <- !x
    done;
    update

  let insert t ~key ~value =
    let update = find_path t key in
    match update.(0).next.(0) with
    | Some n when n.key = key ->
      t.bytes <- t.bytes + String.length value - String.length n.value;
      n.value <- value;
      if n.deleted then begin
        n.deleted <- false;
        t.count <- t.count + 1
      end
    | Some _ | None ->
      let lvl = random_level t in
      if lvl > t.level then t.level <- lvl;
      let node = { key; value; deleted = false; next = Array.make lvl None } in
      for i = 0 to lvl - 1 do
        node.next.(i) <- update.(i).next.(i);
        update.(i).next.(i) <- Some node
      done;
      t.count <- t.count + 1;
      t.bytes <- t.bytes + String.length key + String.length value + (16 * lvl)

  let find t key =
    let update = find_path t key in
    match update.(0).next.(0) with
    | Some n when n.key = key && not n.deleted -> Some n.value
    | Some _ | None -> None

  let delete t key =
    let update = find_path t key in
    match update.(0).next.(0) with
    | Some n when n.key = key && not n.deleted ->
      n.deleted <- true;
      t.count <- t.count - 1;
      true
    | Some _ | None -> false

  let iter_from t key f =
    let update = find_path t key in
    let rec visit = function
      | None -> ()
      | Some n ->
        Sched.cpu hop_cost;
        if n.deleted then visit n.next.(0)
        else if f n.key n.value then visit n.next.(0)
    in
    visit update.(0).next.(0)

  let iter t f =
    let rec go = function
      | None -> ()
      | Some n ->
        if not n.deleted then f n.key n.value;
        go n.next.(0)
    in
    go t.head.next.(0)

  let count t = t.count
  let approximate_bytes t = t.bytes

  let clear t =
    Array.fill t.head.next 0 max_level None;
    t.level <- 1;
    t.count <- 0;
    t.bytes <- 0
end

(* Op streams over a small key pool (forcing updates, deletes and
   delete→reinsert cycles), long enough that [random_level] grows the
   index past level 1. Every observable — results, dump order, count,
   byte estimate, and the simulated nanoseconds each op charges via
   [Sched.cpu] — must match the reference exactly. *)
let prop_skiplist_vs_reference =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun k -> `Insert k) (int_bound 120));
          (2, map (fun k -> `Delete k) (int_bound 120));
          (2, map (fun k -> `Find k) (int_bound 120));
          (1, map2 (fun k n -> `Iter_from (k, n)) (int_bound 120) (int_bound 20));
          (1, return `Clear);
        ])
  in
  let print_op = function
    | `Insert k -> Printf.sprintf "ins %d" k
    | `Delete k -> Printf.sprintf "del %d" k
    | `Find k -> Printf.sprintf "find %d" k
    | `Iter_from (k, n) -> Printf.sprintf "iter %d/%d" k n
    | `Clear -> "clear"
  in
  QCheck.Test.make ~count:40 ~name:"skiplist matches reference op-for-op"
    (QCheck.make ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 50 600) op_gen))
    (fun ops ->
      Sched.run (fun () ->
          let seed = 0xD1FF in
          let s = Skiplist.create ~seed () in
          let r = Ref_skiplist.create ~seed () in
          let serial = ref 0 in
          let dump iter t =
            let acc = ref [] in
            iter t (fun k v -> acc := (k, v) :: !acc);
            List.rev !acc
          in
          let timed f =
            let t0 = Sched.now () in
            let x = f () in
            (x, Sched.now () - t0)
          in
          let ok = ref true in
          let check_eq a b = if a <> b then ok := false in
          List.iter
            (fun op ->
              (match op with
              | `Insert k ->
                let key = Printf.sprintf "%06d" k in
                incr serial;
                let value = Printf.sprintf "v%d" !serial in
                let ((), tn) = timed (fun () -> Skiplist.insert s ~key ~value) in
                let ((), tr) =
                  timed (fun () -> Ref_skiplist.insert r ~key ~value)
                in
                check_eq tn tr
              | `Delete k ->
                let key = Printf.sprintf "%06d" k in
                let bn, tn = timed (fun () -> Skiplist.delete s key) in
                let br, tr = timed (fun () -> Ref_skiplist.delete r key) in
                check_eq bn br;
                check_eq tn tr
              | `Find k ->
                let key = Printf.sprintf "%06d" k in
                let vn, tn = timed (fun () -> Skiplist.find s key) in
                let vr, tr = timed (fun () -> Ref_skiplist.find r key) in
                check_eq vn vr;
                check_eq tn tr
              | `Iter_from (k, n) ->
                let key = Printf.sprintf "%06d" k in
                let window iter_from t =
                  let acc = ref [] and taken = ref 0 in
                  iter_from t key (fun k v ->
                      if !taken < n then begin
                        acc := (k, v) :: !acc;
                        incr taken;
                        true
                      end
                      else false);
                  List.rev !acc
                in
                let wn, tn = timed (fun () -> window Skiplist.iter_from s) in
                let wr, tr =
                  timed (fun () -> window Ref_skiplist.iter_from r)
                in
                check_eq wn wr;
                check_eq tn tr
              | `Clear ->
                Skiplist.clear s;
                Ref_skiplist.clear r);
              check_eq (Skiplist.count s) (Ref_skiplist.count r);
              check_eq (Skiplist.approximate_bytes s)
                (Ref_skiplist.approximate_bytes r))
            ops;
          check_eq (dump Skiplist.iter s) (dump Ref_skiplist.iter r);
          !ok))

(* --- environments --- *)

let ffs dev = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose)
let msnap dev = (Msnap.boot ~format:true dev, Msnap.dispose)
let aurora dev = (Aurora.Kernel.boot ~format:true dev, Aurora.Kernel.dispose)

let small_config = { Rocks.memtable_flush_bytes = Size.kib 64; region_pages = 4096 }

(* --- persistent skiplist --- *)

let pskiplist_over k =
  let md = Msnap.open_region k ~name:"ps" ~len:(4096 * 4096) () in
  let ops =
    {
      Pskiplist.ro_write = (fun ~off b -> Msnap.write k md ~off b);
      ro_read_into =
        (fun ~off buf ~pos ~len -> Msnap.read_into k md ~off buf ~pos ~len);
      ro_persist = (fun () -> ignore (Msnap.persist k ~region:md ()));
      ro_pages = 4096;
    }
  in
  Pskiplist.create ops

let test_pskiplist_basic () =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let ps = pskiplist_over k in
      Pskiplist.insert ps ~key:"beta" ~value:"2";
      Pskiplist.insert ps ~key:"alpha" ~value:"1";
      check_opt "find" (Some "1") (Pskiplist.find ps "alpha");
      check_opt "missing" None (Pskiplist.find ps "zeta");
      Pskiplist.insert ps ~key:"alpha" ~value:"1b";
      check_opt "update" (Some "1b") (Pskiplist.find ps "alpha");
      checki "count" 2 (Pskiplist.count ps);
      checkb "delete" true (Pskiplist.delete ps "alpha");
      check_opt "gone" None (Pskiplist.find ps "alpha"))
    ()

let test_pskiplist_recovery () =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let md = Msnap.open_region k ~name:"ps" ~len:(4096 * 4096) () in
      let ops =
        {
          Pskiplist.ro_write = (fun ~off b -> Msnap.write k md ~off b);
          ro_read_into =
        (fun ~off buf ~pos ~len -> Msnap.read_into k md ~off buf ~pos ~len);
          ro_persist = (fun () -> ignore (Msnap.persist k ~region:md ()));
          ro_pages = 4096;
        }
      in
      let ps = Pskiplist.create ops in
      for i = 0 to 199 do
        Pskiplist.insert ps ~key:(Printf.sprintf "%04d" i) ~value:(Printf.sprintf "v%d" i)
      done;
      (* Reboot; rebuild the index from the persisted linked list. *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let md2 = Msnap.open_region k2 ~name:"ps" ~len:(4096 * 4096) () in
      let ops2 =
        {
          Pskiplist.ro_write = (fun ~off b -> Msnap.write k2 md2 ~off b);
          ro_read_into =
            (fun ~off buf ~pos ~len ->
              Msnap.read_into k2 md2 ~off buf ~pos ~len);
          ro_persist = (fun () -> ignore (Msnap.persist k2 ~region:md2 ()));
          ro_pages = 4096;
        }
      in
      let ps2 = Pskiplist.recover ops2 in
      checki "count recovered" 200 (Pskiplist.count ps2);
      check_opt "value" (Some "v123") (Pskiplist.find ps2 "0123");
      (* Still writable after recovery. *)
      Pskiplist.insert ps2 ~key:"9999" ~value:"new";
      check_opt "post-recovery insert" (Some "new") (Pskiplist.find ps2 "9999"))
    ()

(* --- sstable / lsm --- *)

let test_sstable_roundtrip () =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      let pairs =
        List.init 500 (fun i -> (Printf.sprintf "%06d" i, Some (Printf.sprintf "v%d" i)))
      in
      let sst = Sstable.build fs ~name:"t.sst" pairs in
      checki "count" 500 (Sstable.count sst);
      checkb "get mid" true (Sstable.get sst "000250" = Some (Some "v250"));
      checkb "absent" true (Sstable.get sst "zzz" = None);
      checkb "absent low" true (Sstable.get sst "000000x" = None);
      let n = ref 0 in
      Sstable.iter sst (fun _ _ -> incr n);
      checki "iter all" 500 !n)
    ()

let test_sstable_tombstone () =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      let sst = Sstable.build fs ~name:"t.sst" [ ("a", Some "1"); ("b", None) ] in
      checkb "tombstone" true (Sstable.get sst "b" = Some None))
    ()

let test_lsm_shadowing_and_compaction () =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      let lsm = Lsm.create fs ~name:"l" in
      Lsm.add_run lsm [ ("a", Some "old"); ("b", Some "1") ];
      Lsm.add_run lsm [ ("a", Some "new") ];
      checkb "newest wins" true (Lsm.get lsm "a" = Some (Some "new"));
      Lsm.add_run lsm [ ("b", None) ];
      checkb "tombstone shadows" true (Lsm.get lsm "b" = Some None);
      (* Force compaction (trigger = 4). *)
      Lsm.add_run lsm [ ("c", Some "3") ];
      checkb "compacted" true (Lsm.compactions lsm >= 1);
      checki "l0 emptied" 0 (Lsm.l0_runs lsm);
      checkb "post-compaction reads" true (Lsm.get lsm "a" = Some (Some "new"));
      checkb "tombstone dropped after full merge" true (Lsm.get lsm "b" = None))
    ()

(* --- the three backends behave identically --- *)

let exercise db =
  Rocks.put db ~key:"k1" ~value:"v1";
  Rocks.put db ~key:"k3" ~value:"v3";
  Rocks.put_batch db [ ("k2", "v2"); ("k4", "v4") ];
  check_opt "get" (Some "2" |> Option.map (fun _ -> "v2")) (Rocks.get db "k2");
  check_opt "missing" None (Rocks.get db "nope");
  Rocks.delete db "k3";
  check_opt "deleted" None (Rocks.get db "k3");
  let window = Rocks.seek db "k1" ~n:10 in
  Alcotest.(check (list (pair string string)))
    "seek window"
    [ ("k1", "v1"); ("k2", "v2"); ("k4", "v4") ]
    window;
  checki "count" 3 (Rocks.count db)

let test_rocks_baseline () =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      exercise (Rocks.open_db (Rocks.Baseline fs) ~name:"db"))
    ()

let test_rocks_memsnap () =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      exercise (Rocks.open_db ~config:small_config (Rocks.Memsnap k) ~name:"db"))
    ()

let test_rocks_aurora () =
  in_dev ~mib:256 (fun dev ->
      let& k = aurora dev in
      exercise (Rocks.open_db ~config:small_config (Rocks.Aurora k) ~name:"db"))
    ()

let test_baseline_flush_and_compaction_under_load () =
  in_dev ~mib:256 (fun dev ->
      let& fs = ffs dev in
      let db = Rocks.open_db ~config:small_config (Rocks.Baseline fs) ~name:"db" in
      let v = String.make 100 'v' in
      for i = 0 to 4_000 do
        Rocks.put db ~key:(Printf.sprintf "%08d" (i * 7919 mod 4000)) ~value:v
      done;
      checkb "flushed" true (Rocks.flushes db > 0);
      checkb "compacted" true (Rocks.compactions db > 0);
      (* Data correct across memtable + L0 + L1. *)
      check_opt "read back" (Some v) (Rocks.get db (Printf.sprintf "%08d" 42)))
    ()

let test_rocks_memsnap_recovery () =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let db = Rocks.open_db ~config:small_config (Rocks.Memsnap k) ~name:"db" in
      for i = 0 to 299 do
        Rocks.put db ~key:(Printf.sprintf "%05d" i) ~value:(string_of_int i)
      done;
      let module RR = (val Rocks.recoverable ~config:small_config ~name:"db" ()) in
      let r = RR.recover dev in
      let db2 = r.Rocks.db in
      checki "count" 300 (Rocks.count db2);
      check_opt "value" (Some "123") (Rocks.get db2 "00123"))
    ()

(* §7.2's torture test: concurrent increment transactions, then verify
   the sum; then again with a crash. *)
let increment_run ?(guard = fun f -> f ()) ~threads ~keys ~txns ~incr_keys db
    rng_seed =
  (* Each thread owns a disjoint key slice: the upper layers of a real
     database serialize read-modify-writes with transaction locks, which
     this harness does not model; property (3) only covers page-level
     overwrites. *)
  let slice = keys / threads in
  let acked = ref 0 in
  let ts =
    List.init threads (fun t ->
        Sched.spawn ~name:(Printf.sprintf "w%d" t) (fun () ->
            guard (fun () ->
            let rng = Rng.create (rng_seed + t) in
            for _ = 1 to txns do
              let chosen =
                List.init incr_keys (fun _ -> (t * slice) + Rng.int rng slice)
                |> List.sort_uniq compare
              in
              let batch =
                List.map
                  (fun ki ->
                    let key = Printf.sprintf "%06d" ki in
                    let v =
                      match Rocks.get db key with
                      | Some v -> int_of_string v
                      | None -> 0
                    in
                    (key, string_of_int (v + 1)))
                  chosen
              in
              Rocks.put_batch db batch;
              acked := !acked + List.length batch
            done)))
  in
  List.iter Sched.join ts;
  !acked

let sum_values db keys =
  let total = ref 0 in
  for ki = 0 to keys - 1 do
    match Rocks.get db (Printf.sprintf "%06d" ki) with
    | Some v -> total := !total + int_of_string v
    | None -> ()
  done;
  !total

let test_increment_consistency () =
  in_dev ~mib:256 (fun dev ->
      let& k = msnap dev in
      let db = Rocks.open_db ~config:small_config (Rocks.Memsnap k) ~name:"db" in
      (* Threads pick disjoint key ranges per txn via sort_uniq + the
         per-node locks; sum of values must equal acked increments. *)
      let acked = increment_run ~threads:4 ~keys:64 ~txns:25 ~incr_keys:4 db 99 in
      checki "sum matches acks" acked (sum_values db 64))
    ()

(* Cuts power mid-run, so the crashed kernel and the device are not
   disposed (buffer ownership may be mid-transfer). *)
let test_increment_crash_consistency () =
  in_sim (fun () ->
      let dev = Device.testbed ~mib:256 in
      let k = Msnap.boot ~format:true dev in
      let db = Rocks.open_db ~config:small_config (Rocks.Memsnap k) ~name:"db" in
      (* Run increments in background; pull the plug mid-run. *)
      let stop_exn = ref false in
      let guard f =
        try f () with Disk.Powered_off -> stop_exn := true
      in
      let worker =
        Sched.spawn ~name:"torture" (fun () ->
            ignore
              (increment_run ~guard ~threads:1 ~keys:32 ~txns:500 ~incr_keys:3 db 7))
      in
      Sched.delay 3_000_000;
      Device.fail_power dev ~torn_seed:123;
      Sched.join worker;
      Device.restore_power dev;
      (* Recover and verify: every key's value must be a valid integer,
         and the state must be a transaction-consistent prefix: since each
         batch commits atomically, the recovered sum is the number of
         committed increments — necessarily <= issued ones, and readable
         without corruption. *)
      let module RR = (val Rocks.recoverable ~config:small_config ~name:"db" ()) in
      let r = RR.recover dev in
      let db2 = r.Rocks.db in
      let sum = sum_values db2 32 in
      checkb "recovered uncorrupted, non-trivial prefix" true (sum >= 0);
      checkb "made progress before crash" true (sum > 0))
    ()

let test_aurora_serializes_checkpoints () =
  in_sim (fun () ->
      (* Concurrent writers: Aurora flat-combines, MemSnap proceeds in
         parallel — MemSnap should finish the same work much faster. *)
      let run backend =
        let db = Rocks.open_db ~config:small_config backend ~name:"db" in
        (* Populate first: Aurora's shadow/collapse cost is proportional
           to the *resident* mapping, not the dirty set. *)
        Rocks.put_batch db
          (List.init 1500 (fun i -> (Printf.sprintf "fill%06d" i, "x")));
        let t0 = Sched.now () in
        let ts =
          List.init 8 (fun t ->
              Sched.spawn (fun () ->
                  for i = 0 to 19 do
                    Rocks.put db
                      ~key:(Printf.sprintf "%02d-%03d" t i)
                      ~value:"payload"
                  done))
        in
        List.iter Sched.join ts;
        Sched.now () - t0
      in
      let memsnap_ns =
        let& dev = testbed ~mib:256 in
        let& k = msnap dev in
        run (Rocks.Memsnap k)
      in
      let aurora_ns =
        let& dev = testbed ~mib:256 in
        let& k = aurora dev in
        run (Rocks.Aurora k)
      in
      checkb
        (Printf.sprintf "aurora (%d) slower than memsnap (%d)" aurora_ns memsnap_ns)
        true
        (aurora_ns > 2 * memsnap_ns))
    ()

(* Two concurrent puts on the WAL baseline and a power cut [cut_us] into
   their write groups: the first put leads a round of its own, the
   second joins the next. Every put whose round the cut failed catches
   [Powered_off], whether the fsync failed under the leader or under an
   FFS writeback thread; none is left parked. Nothing is disposed (the
   cut leaves buffers mid-transfer). *)
let baseline_puts_power_cut cut_us ~want () =
  let failed =
    Sched.run (fun () ->
        let dev = Device.testbed ~mib:256 in
        let db = Rocks.open_db (Rocks.Baseline (Fs.mkfs dev ~kind:Fs.Ffs)) ~name:"db" in
        let failed = ref 0 in
        let ts =
          List.init 2 (fun i ->
              Sched.spawn (fun () ->
                  try Rocks.put db ~key:(Printf.sprintf "k%d" i) ~value:"v"
                  with Disk.Powered_off -> incr failed))
        in
        Sched.delay (cut_us * 1000);
        Device.fail_power dev ~torn_seed:1;
        List.iter Sched.join ts;
        !failed)
  in
  checki (Printf.sprintf "puts failed by a cut at %d us" cut_us) want failed

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rocks"
    [
      ( "skiplist",
        [
          tc "basic" test_skiplist_basic;
          tc "order" test_skiplist_order;
          QCheck_alcotest.to_alcotest prop_skiplist_model;
          QCheck_alcotest.to_alcotest prop_skiplist_vs_reference;
        ] );
      ( "pskiplist",
        [
          tc "basic" test_pskiplist_basic;
          tc "recovery" test_pskiplist_recovery;
        ] );
      ( "sstable",
        [
          tc "roundtrip" test_sstable_roundtrip;
          tc "tombstone" test_sstable_tombstone;
        ] );
      ("lsm", [ tc "shadowing+compaction" test_lsm_shadowing_and_compaction ]);
      ( "db",
        [
          tc "baseline" test_rocks_baseline;
          tc "memsnap" test_rocks_memsnap;
          tc "aurora" test_rocks_aurora;
          tc "flush/compaction" test_baseline_flush_and_compaction_under_load;
          tc "memsnap recovery" test_rocks_memsnap_recovery;
          tc "aurora serializes" test_aurora_serializes_checkpoints;
          tc "power cut in a write group" (baseline_puts_power_cut 20 ~want:2);
          tc "power cut in group fsync writeback" (baseline_puts_power_cut 100 ~want:1);
        ] );
      ( "torture",
        [
          tc "increment consistency" test_increment_consistency;
          tc "crash consistency" test_increment_crash_consistency;
        ] );
    ]
