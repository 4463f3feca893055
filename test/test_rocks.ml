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

(* --- volatile skiplist: the baseline MemTable --- *)

module Memtable = Rocks.Memtable

let mt_find m key = Skiplist.find (Memtable.list m) key

let mt_dump m =
  let acc = ref [] in
  Skiplist.iter (Memtable.list m) (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let check_entry = Alcotest.(check (option (option string)))

let test_skiplist_basic () =
  in_sim (fun () ->
      let m = Memtable.create () in
      Memtable.put m "b" (Some "2");
      Memtable.put m "a" (Some "1");
      Memtable.put m "c" (Some "3");
      check_entry "find" (Some (Some "2")) (mt_find m "b");
      check_entry "missing" None (mt_find m "x");
      Memtable.put m "b" (Some "22");
      check_entry "updated" (Some (Some "22")) (mt_find m "b");
      Memtable.put m "a" None;
      check_entry "tombstone" (Some None) (mt_find m "a");
      Alcotest.(check (list string)) "no dup" [ "a"; "b"; "c" ]
        (List.map fst (mt_dump m)))
    ()

let test_skiplist_order () =
  in_sim (fun () ->
      let m = Memtable.create () in
      let rng = Rng.create 5 in
      let keys = Array.init 2000 (fun i -> Printf.sprintf "%08d" i) in
      Rng.shuffle rng keys;
      Array.iter (fun k -> Memtable.put m k (Some k)) keys;
      let prev = ref "" in
      let ordered = ref true in
      let n = ref 0 in
      Skiplist.iter (Memtable.list m) (fun k _ ->
          if k <= !prev then ordered := false;
          prev := k;
          incr n);
      checkb "sorted" true !ordered;
      checki "count" 2000 !n;
      (* iter_from starts at the bound. *)
      let first = ref "" in
      Skiplist.iter_from (Memtable.list m) "00001000" (fun k _ ->
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
          let m = Memtable.create () in
          let model = ref M.empty in
          List.iter
            (fun (k, v) ->
              let key = Printf.sprintf "%06d" k in
              let v = Option.map string_of_int v in
              Memtable.put m key v;
              model := M.add key v !model)
            ops;
          M.for_all (fun k v -> mt_find m k = Some v) !model
          && mt_dump m = M.bindings !model))

(* A writer that yields between its descent and its link (Pskiplist's
   do) can find nodes linked after its path entry meanwhile: here "m"
   is linked along a path taken before "k" was linked after the same
   entry. Every level must stay sorted, and unlinking "k" must take it
   off every level. *)
let test_skiplist_stale_path () =
  in_sim (fun () ->
      let s = Skiplist.create () in
      let level i =
        let rec go (n : unit Skiplist.node) acc =
          if Skiplist.is_end s n then List.rev acc else go n.next.(i) (n.key :: acc)
        in
        go (Skiplist.path s).(i).next.(i) []
      in
      let descend key =
        let p = Skiplist.path s in
        (Skiplist.find_path s key p, p)
      in
      let link key = Skiplist.link s (snd (descend key)) key () ~level:2 in
      link "a";
      link "z";
      let _, stale = descend "m" in
      link "k";
      Skiplist.link s stale "m" () ~level:2;
      let keys = Alcotest.(check (list string)) in
      keys "level 1 sorted" [ "a"; "k"; "m"; "z" ] (level 1);
      let prev, p = descend "k" in
      Skiplist.unlink s p (Skiplist.succ prev);
      keys "level 0 without k" [ "a"; "m"; "z" ] (level 0);
      keys "level 1 without k" [ "a"; "m"; "z" ] (level 1))
    ()

(* Reference MemTable: the original option-boxed skip list over
   'V'/'D'-tagged string entries, kept verbatim (less its unused
   [delete] and [count]) as the oracle for the typed, sentinel-linked
   MemTable. Same RNG stream (same seed, one
   [Rng.int _ 4] run per fresh insert), so the tower heights — and
   therefore every [Sched.cpu] probe charge — must line up exactly with
   the production structure. *)
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

  let approximate_bytes t = t.bytes

  let clear t =
    Array.fill t.head.next 0 max_level None;
    t.level <- 1;
    t.count <- 0;
    t.bytes <- 0
end

(* Op streams over a small key pool (forcing updates, tombstones and
   tombstone→reinsert cycles), long enough that the level draw grows the
   index past level 1. A delete is a tombstone put: [None] on the
   MemTable, "D" on the reference; a value is [Some v] and "V" ^ v.
   Every observable — results, dump order, byte estimate, and the
   simulated nanoseconds each op charges via [Sched.cpu] — must match
   the reference exactly. *)
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
  let tag = function Some v -> "V" ^ v | None -> "D" in
  QCheck.Test.make ~count:40 ~name:"skiplist matches reference op-for-op"
    (QCheck.make ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 50 600) op_gen))
    (fun ops ->
      Sched.run (fun () ->
          let seed = 0xD1FF in
          let m = Memtable.create ~seed () in
          let r = Ref_skiplist.create ~seed () in
          let serial = ref 0 in
          let timed f =
            let t0 = Sched.now () in
            let x = f () in
            (x, Sched.now () - t0)
          in
          let ok = ref true in
          let check_eq a b = if a <> b then ok := false in
          let put key v =
            let ((), tn) = timed (fun () -> Memtable.put m key v) in
            let ((), tr) =
              timed (fun () -> Ref_skiplist.insert r ~key ~value:(tag v))
            in
            check_eq tn tr
          in
          List.iter
            (fun op ->
              (match op with
              | `Insert k ->
                incr serial;
                put (Printf.sprintf "%06d" k) (Some (Printf.sprintf "v%d" !serial))
              | `Delete k -> put (Printf.sprintf "%06d" k) None
              | `Find k ->
                let key = Printf.sprintf "%06d" k in
                let vn, tn = timed (fun () -> mt_find m key) in
                let vr, tr = timed (fun () -> Ref_skiplist.find r key) in
                check_eq (Option.map tag vn) vr;
                check_eq tn tr
              | `Iter_from (k, n) ->
                let key = Printf.sprintf "%06d" k in
                let window iter_from t tag =
                  let acc = ref [] and taken = ref 0 in
                  iter_from t key (fun k v ->
                      if !taken < n then begin
                        acc := (k, tag v) :: !acc;
                        incr taken;
                        true
                      end
                      else false);
                  List.rev !acc
                in
                let wn, tn =
                  timed (fun () ->
                      window Skiplist.iter_from (Memtable.list m) tag)
                in
                let wr, tr =
                  timed (fun () -> window Ref_skiplist.iter_from r Fun.id)
                in
                check_eq wn wr;
                check_eq tn tr
              | `Clear ->
                Memtable.clear m;
                Ref_skiplist.clear r);
              check_eq (Memtable.bytes m) (Ref_skiplist.approximate_bytes r))
            ops;
          let dump = ref [] in
          Ref_skiplist.iter r (fun k v -> dump := (k, v) :: !dump);
          check_eq (List.map (fun (k, v) -> (k, tag v)) (mt_dump m)) (List.rev !dump);
          !ok))

(* --- environments --- *)

let ffs dev = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose)
let msnap dev = (Msnap.boot ~format:true dev, Msnap.dispose)
let aurora dev = (Aurora.Kernel.boot ~format:true dev, Aurora.Kernel.dispose)

let small_config = { Rocks.memtable_flush_bytes = Size.kib 64; region_pages = 4096 }

(* --- persistent skiplist --- *)

let region_ops k =
  let md = Msnap.open_region k ~name:"ps" ~len:(4096 * 4096) () in
  {
    Pskiplist.ro_write = (fun ~off b -> Msnap.write k md ~off b);
    ro_read_into =
      (fun ~off buf ~pos ~len -> Msnap.read_into k md ~off buf ~pos ~len);
    ro_persist = (fun () -> ignore (Msnap.persist k ~region:md ()));
    ro_pages = 4096;
  }

let pskiplist_over k = Pskiplist.create (region_ops k)

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
      let ps = pskiplist_over k in
      for i = 0 to 199 do
        Pskiplist.insert ps ~key:(Printf.sprintf "%04d" i) ~value:(Printf.sprintf "v%d" i)
      done;
      (* Reboot; rebuild the index from the persisted linked list. *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let ps2 = Pskiplist.recover (region_ops k2) in
      checki "count recovered" 200 (Pskiplist.count ps2);
      check_opt "value" (Some "v123") (Pskiplist.find ps2 "0123");
      (* Still writable after recovery. *)
      Pskiplist.insert ps2 ~key:"9999" ~value:"new";
      check_opt "post-recovery insert" (Some "new") (Pskiplist.find ps2 "9999"))
    ()

(* 1-4 fibers write random batches over a 24-key pool in rounds, and a
   few deletes run between the rounds: fiber [f] of [nf] owns the keys
   [i] with [i mod nf = f], so neighbouring keys belong to different
   fibers and their writers contend for the same predecessors' locks
   (held until each μCheckpoint commits), while each key's history stays
   sequential and a Map models it. The small pool forces in-place
   updates, inserts after deletes and predecessors shared within a
   batch. Afterwards every [find], the count and an [iter_from] window
   agree with the model, and a reboot plus [recover] gives back the same
   contents. Deletes do not run beside the writers: [delete] locks only
   the predecessor, so it races a writer that links after the victim. *)
let prop_pskiplist_concurrent =
  let pool = 24 in
  let batch = QCheck.Gen.(list_size (int_range 1 5) (pair (int_bound (pool - 1)) (int_bound 999))) in
  let round nf =
    QCheck.Gen.(
      pair
        (list_repeat nf (list_size (int_range 0 4) batch))
        (list_size (int_range 0 4) (int_bound (pool - 1))))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun nf ->
      triple (return nf)
        (list_size (int_range 1 5) (round nf))
        (pair (int_bound (pool - 1)) (int_range 1 pool)))
  in
  let print (nf, rounds, (from, n)) =
    let batch b = String.concat "," (List.map (fun (j, v) -> Printf.sprintf "%d=%d" j v) b) in
    Printf.sprintf "%d fibers, window %d/%d:\n%s" nf from n
      (String.concat "\n"
         (List.map
            (fun (fibers, dels) ->
              String.concat " | "
                (List.map (fun bs -> String.concat "; " (List.map batch bs)) fibers)
              ^ " | del " ^ String.concat "," (List.map string_of_int dels))
            rounds))
  in
  QCheck.Test.make ~count:40 ~name:"concurrent batches and deletes agree with Map model"
    (QCheck.make ~print gen)
    (fun (nf, rounds, (from, n)) ->
      let key i = Printf.sprintf "k%02d" i in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      let ok = ref true in
      let check_eq a b = if a <> b then ok := false in
      let window ps from n =
        let acc = ref [] in
        Pskiplist.iter_from ps from (fun k v ->
            acc := (k, v) :: !acc;
            List.length !acc < n);
        List.rev !acc
      in
      in_dev ~mib:256
        (fun dev ->
          let& k = msnap dev in
          let ps = pskiplist_over k in
          (* Op key [j] names fiber [f]'s [j mod (pool / nf)]-th key. *)
          let write f batches =
            List.iter
              (fun b ->
                let b =
                  List.map (fun (j, v) -> (key ((j mod (pool / nf) * nf) + f), string_of_int v)) b
                in
                Pskiplist.insert_batch ps b;
                List.iter (fun (k, v) -> model := M.add k v !model) b)
              batches
          in
          List.iter
            (fun (fibers, dels) ->
              List.mapi (fun f batches -> Sched.spawn (fun () -> write f batches)) fibers
              |> List.iter Sched.join;
              List.iter
                (fun i ->
                  check_eq (Pskiplist.delete ps (key i)) (M.mem (key i) !model);
                  model := M.remove (key i) !model)
                dels)
            rounds;
          for i = 0 to pool - 1 do
            check_eq (Pskiplist.find ps (key i)) (M.find_opt (key i) !model)
          done;
          check_eq (Pskiplist.count ps) (M.cardinal !model);
          check_eq (window ps (key from) n)
            (M.bindings !model
            |> List.filter (fun (k, _) -> k >= key from)
            |> List.filteri (fun i _ -> i < n));
          let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
          let ps2 = Pskiplist.recover (region_ops k2) in
          check_eq (Pskiplist.count ps2) (M.cardinal !model);
          check_eq (window ps2 "" max_int) (M.bindings !model))
        ();
      !ok)

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
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let db2 = Rocks.recover ~config:small_config k2 ~name:"db" in
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
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let db2 = Rocks.recover ~config:small_config k2 ~name:"db" in
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
          tc "stale path" test_skiplist_stale_path;
        ] );
      ( "pskiplist",
        [
          tc "basic" test_pskiplist_basic;
          tc "recovery" test_pskiplist_recovery;
          QCheck_alcotest.to_alcotest prop_pskiplist_concurrent;
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
