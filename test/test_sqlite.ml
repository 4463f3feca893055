module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Device = Msnap_blockdev.Device
module Disk = Msnap_blockdev.Disk
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Page = Msnap_sqlite.Page
module Pager = Msnap_sqlite.Pager
module Btree = Msnap_sqlite.Btree
module Db = Msnap_sqlite.Db
module Backend_wal = Msnap_sqlite.Backend_wal
module Backend_msnap = Msnap_sqlite.Backend_msnap
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let check_opt = Alcotest.(check (option string))

(* Pooled buffers live outside the OCaml heap and nothing reclaims a
   dropped one: every case disposes what it builds. *)
let suite_start = outstanding ()

let dispose_pager db = Pager.dispose (Db.pager db)

(* --- Page format --- *)

let test_page_leaf_cells () =
  let b = Bytes.create Page.size in
  Page.init b Page.Leaf;
  checkb "leaf" true (Page.kind_of b = Page.Leaf);
  checkb "ins0" true (Page.leaf_insert_at b 0 ~key:"b" ~value:"2");
  checkb "ins1" true (Page.leaf_insert_at b 0 ~key:"a" ~value:"1");
  checkb "ins2" true (Page.leaf_insert_at b 2 ~key:"c" ~value:"3");
  checki "ncells" 3 (Page.ncells b);
  checks "k0" "a" (Page.leaf_key b 0);
  checks "v0" "1" (Page.leaf_value b 0);
  checks "k1" "b" (Page.leaf_key b 1);
  checks "k2" "c" (Page.leaf_key b 2)

let test_page_search () =
  let b = Bytes.create Page.size in
  Page.init b Page.Leaf;
  List.iteri
    (fun i k -> assert (Page.leaf_insert_at b i ~key:k ~value:"v"))
    [ "b"; "d"; "f" ];
  checki "found" 1 (Page.search b "d");
  checki "before b" (-1) (Page.search b "a");
  checki "between" (-3) (Page.search b "e");
  checki "after" (-4) (Page.search b "z")

let test_page_delete_and_compact () =
  let b = Bytes.create Page.size in
  Page.init b Page.Leaf;
  (* Fill, delete every other, then the freed space must be reusable. *)
  let v = String.make 100 'v' in
  let n = ref 0 in
  while Page.leaf_insert_at b !n ~key:(Printf.sprintf "k%04d" !n) ~value:v do
    incr n
  done;
  checkb "filled" true (!n > 30);
  let deleted = ref 0 in
  for i = !n - 1 downto 0 do
    if i mod 2 = 0 then begin
      Page.delete_at b i;
      incr deleted
    end
  done;
  checki "half deleted" (!n - !deleted) (Page.ncells b);
  (* Insert into the fragmented space: forces compaction. *)
  checkb "reuses space" true (Page.leaf_insert_at b 0 ~key:"a" ~value:v)

let test_page_interior () =
  let b = Bytes.create Page.size in
  Page.init b Page.Interior;
  assert (Page.interior_insert_at b 0 ~child:10 ~key:"m");
  Page.set_right_child b 20;
  checki "child" 10 (Page.interior_child b 0);
  checks "key" "m" (Page.interior_key b 0);
  checki "right" 20 (Page.right_child b)

(* A cell deleted from the bottom of the content area grows the gap; it
   must not also count as fragmentation. *)
let test_page_free_space_after_tail_delete () =
  let b = Bytes.create Page.size in
  Page.init b Page.Leaf;
  let value = String.make 100 'v' in
  let key i = Printf.sprintf "k%07d" i in
  (* 4 + 8 + 100 = 112-byte cells, appended: the last sits lowest. *)
  let n = ref 0 in
  while Page.leaf_insert_at b !n ~key:(key !n) ~value do
    incr n
  done;
  Page.delete_at b (!n - 1);
  checki "one 112-byte cell plus pointer free, and the slack" 207 (Page.free_space b);
  checkb "one fits" true (Page.leaf_insert_at b (!n - 1) ~key:(key !n) ~value);
  checkb "no second" false (Page.leaf_insert_at b !n ~key:(key (!n + 1)) ~value)

(* [free_space] is exact: a leaf cell of that many bytes goes in, one
   byte more does not. Checked on copies after every step of a random
   insert/delete script, so tail deletes, fragmentation and compaction
   all occur. *)
let prop_page_free_space_exact =
  QCheck.Test.make ~count:200 ~name:"free_space equals what inserts accept"
    QCheck.(list_of_size Gen.(int_range 1 120)
              (triple bool (int_bound 1000) (int_bound 200)))
    (fun ops ->
      let b = Bytes.create Page.size in
      Page.init b Page.Leaf;
      let fits len =
        let c = Bytes.copy b in
        len >= 4 && Page.leaf_insert_at c 0 ~key:"" ~value:(String.make (len - 4) 'x')
      in
      List.for_all
        (fun (ins, pos, len) ->
          let n = Page.ncells b in
          if ins || n = 0 then
            ignore
              (Page.leaf_insert_at b (pos mod (n + 1)) ~key:(string_of_int pos)
                 ~value:(String.make len 'v'))
          else Page.delete_at b (pos mod n);
          let f = Page.free_space b in
          (f < 4 || fits f) && not (fits (f + 1)))
        ops)

(* Keys drawn from a tiny alphabet that straddles 0x80, so stored keys
   share prefixes, are prefixes of one another, and order by unsigned
   bytes. *)
let gen_key max_len =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ '\x00'; 'a'; 'b'; '\x7f'; '\x80'; '\xff' ])
      (int_range 0 max_len))

(* Reference: the index of the first key >= probe, among sorted keys. *)
let ref_search keys probe =
  let n = Array.length keys in
  let rec lb i = if i < n && String.compare keys.(i) probe < 0 then lb (i + 1) else i in
  let i = lb 0 in
  if i < n && keys.(i) = probe then i else -(i + 1)

let prop_page_search_reference =
  QCheck.Test.make ~count:300 ~name:"search agrees with a String.compare search"
    QCheck.(make Gen.(pair (list_size (int_range 0 200) (gen_key 10))
                        (list_size (int_range 1 40) (gen_key 11))))
    (fun (keys, probes) ->
      let keys = Array.of_list (List.sort_uniq String.compare keys) in
      let leaf = Bytes.create Page.size and inner = Bytes.create Page.size in
      Page.init leaf Page.Leaf;
      Page.init inner Page.Interior;
      (* As many keys as fit, in order; then every third deleted, so the
         page also holds fragmented space. *)
      let n = ref 0 in
      (* An interior cell is the larger, so it goes in first. *)
      while
        !n < Array.length keys
        && Page.interior_insert_at inner !n ~child:!n ~key:keys.(!n)
        && Page.leaf_insert_at leaf !n ~key:keys.(!n) ~value:"v"
      do
        incr n
      done;
      let kept = ref [] in
      for i = !n - 1 downto 0 do
        if i mod 3 = 1 then begin
          Page.delete_at leaf i;
          Page.delete_at inner i
        end
        else kept := keys.(i) :: !kept
      done;
      let stored = Array.of_list !kept in
      let sign x = compare x 0 in
      List.for_all
        (fun probe ->
          let want = ref_search stored probe in
          Page.search leaf probe = want
          && Page.search inner probe = want
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i k ->
                    sign (Page.compare_key leaf i probe) = sign (String.compare k probe))
                  stored))
        (Array.to_list stored @ probes))

(* [compare_key] reads the first 8 bytes of both keys as one word; keys
   that share a prefix of 0-12 bytes check it around that boundary. *)
let prop_page_compare_shared_prefix =
  QCheck.Test.make ~count:500
    ~name:"compare_key agrees with String.compare on shared prefixes"
    QCheck.(make Gen.(triple (gen_key 12) (gen_key 4) (gen_key 4)))
    (fun (prefix, a, b) ->
      let stored = prefix ^ a and probe = prefix ^ b in
      let leaf = Bytes.create Page.size and inner = Bytes.create Page.size in
      Page.init leaf Page.Leaf;
      Page.init inner Page.Interior;
      assert (Page.leaf_insert_at leaf 0 ~key:stored ~value:"v");
      assert (Page.interior_insert_at inner 0 ~child:1 ~key:stored);
      let sign x = compare x 0 in
      let want = sign (String.compare stored probe) in
      sign (Page.compare_key leaf 0 probe) = want
      && sign (Page.compare_key inner 0 probe) = want)

(* The B-tree descent compares keys in place: a comparison, through the
   word path or the byte loop, allocates nothing (dev and release
   profiles alike). *)
let test_page_compare_alloc_free () =
  let b = Bytes.create Page.size in
  Page.init b Page.Leaf;
  List.iteri
    (fun i k -> assert (Page.leaf_insert_at b i ~key:k ~value:"v"))
    [ "abc"; "subscriber-00001"; "subscriber-00002" ];
  let probes = [| "abd"; "subscriber-00002"; "subscriber-00001x"; "zzzzzzzzz" |] in
  let sink = ref 0 in
  let run () =
    for i = 0 to Array.length probes - 1 do
      sink := !sink + Page.search b probes.(i) + Page.compare_key b 1 probes.(i)
    done
  in
  run ();
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    run ()
  done;
  let words = Gc.minor_words () -. m0 in
  checkb "search and compare_key allocate nothing" true (words = 0.0)

(* --- Btree over an in-memory backend --- *)

let mem_backend () =
  let store = Hashtbl.create 64 in
  {
    (* Pages come back in pooled buffers, as from a real backend: the
       pager's cache owns them and [Pager.dispose] recycles them. *)
    Pager.b_read_page =
      (fun pgno ->
        Option.map
          (fun b ->
            let page = Msnap_util.Pool.alloc Page.size in
            Bytes.blit b 0 page 0 Page.size;
            page)
          (Hashtbl.find_opt store pgno));
    b_commit =
      (fun pages ->
        List.iter (fun (pgno, b) -> Hashtbl.replace store pgno (Bytes.copy b)) pages);
  }

let with_tree f =
  Sched.run (fun () ->
      let& pager = (Pager.create (mem_backend ()), Pager.dispose) in
      Pager.begin_write pager;
      let tree = Btree.create pager in
      let r = f pager tree in
      Pager.commit pager;
      r)

let test_btree_insert_find () =
  ignore
    (with_tree (fun _ tree ->
         Btree.insert tree ~key:"hello" ~value:"world";
         check_opt "find" (Some "world") (Btree.find tree "hello");
         check_opt "missing" None (Btree.find tree "nope")))

let test_btree_update () =
  ignore
    (with_tree (fun _ tree ->
         Btree.insert tree ~key:"k" ~value:"v1";
         Btree.insert tree ~key:"k" ~value:"v2";
         check_opt "updated" (Some "v2") (Btree.find tree "k");
         checki "no duplicate" 1 (Btree.count tree)))

let test_btree_many_sequential () =
  ignore
    (with_tree (fun _ tree ->
         let n = 5_000 in
         for i = 0 to n - 1 do
           Btree.insert tree ~key:(Db.key_of_int i) ~value:(Printf.sprintf "val%d" i)
         done;
         checki "count" n (Btree.count tree);
         checkb "split happened" true (Btree.depth tree > 1);
         for i = 0 to n - 1 do
           match Btree.find tree (Db.key_of_int i) with
           | Some v -> Alcotest.(check string) "value" (Printf.sprintf "val%d" i) v
           | None -> Alcotest.failf "key %d lost" i
         done))

let test_btree_many_random () =
  ignore
    (with_tree (fun _ tree ->
         let rng = Rng.create 77 in
         let keys = Array.init 5_000 (fun i -> i) in
         Rng.shuffle rng keys;
         Array.iter
           (fun i ->
             Btree.insert tree ~key:(Db.key_of_int i) ~value:(string_of_int i))
           keys;
         checki "count" 5_000 (Btree.count tree);
         Array.iter
           (fun i ->
             check_opt "found" (Some (string_of_int i))
               (Btree.find tree (Db.key_of_int i)))
           keys))

let test_btree_iter_sorted () =
  ignore
    (with_tree (fun _ tree ->
         let rng = Rng.create 3 in
         let keys = Array.init 2_000 Fun.id in
         Rng.shuffle rng keys;
         Array.iter
           (fun i -> Btree.insert tree ~key:(Db.key_of_int i) ~value:"")
           keys;
         let prev = ref (-1) in
         let sorted = ref true in
         Btree.iter_range tree (fun k _ ->
             let i = Db.int_of_key k in
             if i <= !prev then sorted := false;
             prev := i);
         checkb "in order" true !sorted;
         checki "last" 1_999 !prev))

let test_btree_range () =
  ignore
    (with_tree (fun _ tree ->
         for i = 0 to 999 do
           Btree.insert tree ~key:(Db.key_of_int i) ~value:""
         done;
         let seen = ref 0 in
         Btree.iter_range tree ~lo:(Db.key_of_int 100) ~hi:(Db.key_of_int 199)
           (fun _ _ -> incr seen);
         checki "window" 100 !seen))

let test_btree_delete () =
  ignore
    (with_tree (fun _ tree ->
         for i = 0 to 999 do
           Btree.insert tree ~key:(Db.key_of_int i) ~value:"x"
         done;
         for i = 0 to 999 do
           if i mod 2 = 0 then checkb "deleted" true (Btree.delete tree (Db.key_of_int i))
         done;
         checkb "missing delete" false (Btree.delete tree (Db.key_of_int 0));
         checki "half left" 500 (Btree.count tree);
         check_opt "odd survives" (Some "x") (Btree.find tree (Db.key_of_int 501));
         check_opt "even gone" None (Btree.find tree (Db.key_of_int 500))))

let dump tree =
  let acc = ref [] in
  Btree.iter_range tree (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* Transactions of inserts, replacements and deletes, each committed or
   rolled back, against a Map of the committed state. Keys mix 8-byte
   big-endian integers with variable-length keys from [gen_key]; values
   vary in length, so that leaves and interior nodes split, and in
   content, so that same-length replacements show. At the end a
   fresh pager over the same backend must read the committed state. *)
let prop_btree_model =
  let module M = Map.Make (String) in
  let key = QCheck.Gen.(oneof [ map Db.key_of_int (int_bound 500); gen_key 12 ]) in
  let op = QCheck.Gen.(pair key (option (pair (int_bound 120) (int_bound 25)))) in
  let txn = QCheck.Gen.(pair bool (list_size (int_range 1 150) op)) in
  QCheck.Test.make ~count:60 ~name:"btree agrees with Map model"
    QCheck.(make Gen.(list_size (int_range 1 6) txn))
    (fun txns ->
      Sched.run (fun () ->
          let backend = mem_backend () in
          let& pager = (Pager.create backend, Pager.dispose) in
          Pager.begin_write pager;
          let tree = Btree.create pager in
          Pager.commit pager;
          let agrees tree model =
            M.for_all (fun k v -> Btree.find tree k = Some v) model
            && dump tree = M.bindings model
          in
          let committed = ref M.empty in
          List.for_all
            (fun (commit, ops) ->
              Pager.begin_write pager;
              let model = ref !committed in
              List.iter
                (fun (key, v) ->
                  match v with
                  | Some (len, c) ->
                    let value = String.make len (Char.chr (97 + c)) in
                    Btree.insert tree ~key ~value;
                    model := M.add key value !model
                  | None ->
                    let existed = Btree.delete tree key in
                    if existed <> M.mem key !model then failwith "delete mismatch";
                    model := M.remove key !model)
                ops;
              let in_txn = agrees tree !model in
              if commit then begin
                Pager.commit pager;
                committed := !model
              end
              else Pager.rollback pager;
              in_txn && agrees tree !committed)
            txns
          &&
          let& reopened = (Pager.create backend, Pager.dispose) in
          agrees (Btree.open_tree reopened ~root:(Btree.root tree)) !committed))

(* [backend] with its [b_read_page] calls counted in [reads]. *)
let counting reads (b : Pager.backend) =
  { b with Pager.b_read_page = (fun pgno -> incr reads; b.b_read_page pgno) }

(* A rollback across a leaf split, over [backend]. The pages the aborted
   transaction dirtied leave the cache; the next touch of each reloads
   its committed bytes through [b_read_page], once; the page numbers the
   transaction allocated are handed out again, as zeroed pages. *)
let check_rollback_split backend =
  let reads = ref 0 in
  let& pager = (Pager.create (counting reads backend), Pager.dispose) in
  let value = String.make 100 'v' in
  let insert tree i = Btree.insert tree ~key:(Db.key_of_int i) ~value in
  Pager.begin_write pager;
  let tree = Btree.create pager in
  for i = 0 to 19 do
    insert tree i
  done;
  Pager.commit pager;
  checki "one leaf" 1 (Btree.depth tree);
  let npages = Pager.npages pager and cached = Pager.cached_pages pager in
  let committed = List.init npages (fun i -> Bytes.copy (Pager.get_page pager (i + 1))) in
  Pager.begin_write pager;
  for i = 20 to 59 do
    insert tree i
  done;
  checkb "split" true (Btree.depth tree > 1);
  let allocated = Pager.npages pager - npages and dirty = Pager.dirty_pages pager in
  checkb "pages allocated" true (allocated > 0);
  Pager.rollback pager;
  let reloads = dirty - allocated in
  checkb "committed pages dirtied" true (reloads > 0);
  checki "no dirty pages" 0 (Pager.dirty_pages pager);
  checki "dirtied pages leave the cache" (cached - reloads) (Pager.cached_pages pager);
  checki "page count restored" npages (Pager.npages pager);
  let read_back () =
    List.iteri
      (fun i image ->
        checkb "committed bytes" true (Bytes.equal image (Pager.get_page pager (i + 1))))
      committed
  in
  reads := 0;
  read_back ();
  checki "one reload per dirtied page" reloads !reads;
  read_back ();
  checki "reloaded pages stay cached" reloads !reads;
  checki "rows" 20 (Btree.count tree);
  check_opt "aborted row" None (Btree.find tree (Db.key_of_int 25));
  Pager.begin_write pager;
  let pgno = Pager.alloc_page pager in
  checki "aborted page number reused" (npages + 1) pgno;
  checkb "reused page reads as zeros" true
    (Bytes.equal (Bytes.make Page.size '\000') (Pager.get_page pager pgno));
  Pager.commit pager

let test_pager_rollback_split () =
  Sched.run (fun () -> check_rollback_split (mem_backend ()))

let test_pager_rollback_msnap () =
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      check_rollback_split
        (Backend_msnap.backend (Backend_msnap.create k ~db_name:"rb.db" ~max_pages:4096)))
    ()

let test_pager_rollback_wal () =
  in_dev ~mib:128 (fun dev ->
      let& fs = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose) in
      let& be = (Backend_wal.create fs ~db_name:"rb.db" (), Backend_wal.dispose) in
      check_rollback_split (Backend_wal.backend be))
    ()

(* --- Db over both real backends --- *)

(* [f db] over a fresh WAL database on a fresh FFS on [dev]. *)
let with_wal_db dev ?checkpoint_threshold ~db_name f =
  let& fs = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose) in
  let& be =
    (Backend_wal.create fs ~db_name ?checkpoint_threshold (), Backend_wal.dispose)
  in
  let& db = (Db.open_db (Backend_wal.backend be), dispose_pager) in
  f be db

let msnap_db ?(max_pages = 8192) k ~db_name =
  Db.open_db (Backend_msnap.backend (Backend_msnap.create k ~db_name ~max_pages))

let exercise_db db =
  let tbl = Db.create_table db "users" in
  Db.with_write_txn db (fun () ->
      for i = 0 to 499 do
        Db.put tbl ~key:(Db.key_of_int i) ~value:(Printf.sprintf "user-%d" i)
      done);
  Db.with_write_txn db (fun () -> ignore (Db.delete tbl (Db.key_of_int 13)));
  check_opt "get" (Some "user-42") (Db.get tbl (Db.key_of_int 42));
  check_opt "deleted" None (Db.get tbl (Db.key_of_int 13));
  checki "count" 499 (Db.count tbl)

let test_db_over_wal () =
  in_dev ~mib:128 (fun dev -> with_wal_db dev ~db_name:"test.db" (fun _ db -> exercise_db db)) ()

let test_db_over_msnap () =
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db = (msnap_db k ~db_name:"test.db", dispose_pager) in
      exercise_db db)
    ()

let test_db_rollback () =
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db = (msnap_db k ~db_name:"test.db", dispose_pager) in
      let tbl = Db.create_table db "t" in
      Db.with_write_txn db (fun () -> Db.put tbl ~key:"a" ~value:"1");
      (try
         Db.with_write_txn db (fun () ->
             Db.put tbl ~key:"b" ~value:"2";
             failwith "abort")
       with Failure _ -> ());
      check_opt "committed stays" (Some "1") (Db.get tbl "a");
      check_opt "aborted rolled back" None (Db.get tbl "b"))
    ()

(* Rollback does no IO: after a commit fails on a powered-off device it
   raises nothing and closes the transaction, over either backend. *)
let test_rollback_powered_off () =
  let abort dev db =
    let tbl = Db.create_table db "t" in
    Db.with_write_txn db (fun () -> Db.put tbl ~key:"a" ~value:"1");
    let pager = Db.pager db in
    Pager.begin_write pager;
    Db.put tbl ~key:"b" ~value:"2";
    Device.fail_power dev ~torn_seed:1;
    (match Pager.commit pager with
     | () -> Alcotest.fail "commit on a powered-off device"
     | exception Disk.Powered_off -> ());
    Pager.rollback pager;
    checkb "transaction closed" false (Pager.in_txn pager)
  in
  in_dev ~mib:128 (fun dev -> with_wal_db dev ~db_name:"off.db" (fun _ db -> abort dev db)) ();
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db = (msnap_db k ~db_name:"off.db", dispose_pager) in
      abort dev db)
    ()

let test_db_recovery_msnap () =
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db = (msnap_db k ~db_name:"app.db", dispose_pager) in
      let tbl = Db.create_table db "orders" in
      Db.with_write_txn db (fun () ->
          for i = 0 to 999 do
            Db.put tbl ~key:(Db.key_of_int i) ~value:(Printf.sprintf "order-%d" i)
          done);
      (* Reboot the machine; recover through a fresh MemSnap kernel. *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let& db2 = (msnap_db k2 ~db_name:"app.db", dispose_pager) in
      match Db.table db2 "orders" with
      | None -> Alcotest.fail "catalog lost"
      | Some tbl2 ->
        checki "all rows" 1_000 (Db.count tbl2);
        check_opt "row" (Some "order-123") (Db.get tbl2 (Db.key_of_int 123)))
    ()

let test_db_crash_uncommitted_lost_msnap () =
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      (* The open transaction is rolled back before the page cache goes. *)
      let& db =
        (msnap_db k ~db_name:"app.db", fun db -> Pager.rollback (Db.pager db); dispose_pager db)
      in
      let tbl = Db.create_table db "t" in
      Db.with_write_txn db (fun () -> Db.put tbl ~key:"safe" ~value:"yes");
      (* Open a transaction, write, and "crash" before commit. *)
      Pager.begin_write (Db.pager db);
      Db.put tbl ~key:"doomed" ~value:"yes";
      (* no commit; reboot *)
      let& k2 = (Msnap.boot ~format:false dev, Msnap.dispose) in
      let& db2 = (msnap_db k2 ~db_name:"app.db", dispose_pager) in
      match Db.table db2 "t" with
      | None -> Alcotest.fail "catalog lost"
      | Some tbl2 ->
        check_opt "committed" (Some "yes") (Db.get tbl2 "safe");
        check_opt "uncommitted gone" None (Db.get tbl2 "doomed"))
    ()

(* A SQLite machine over MemSnap, and one over WAL+FFS recovered
   by remounting and replaying its WAL, each hand every buffer back
   once disposed. *)
let test_disposed_machines_return_buffers () =
  let before = outstanding () in
  let fill db n =
    let tbl = Db.create_table db "t" in
    for i = 0 to n - 1 do
      Db.with_write_txn db (fun () ->
          Db.put tbl ~key:(Db.key_of_int i) ~value:(String.make 100 'v'))
    done
  in
  in_dev ~mib:128 (fun dev ->
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db = (msnap_db ~max_pages:4096 k ~db_name:"m.db", dispose_pager) in
      fill db 300)
    ();
  checki "msnap: outstanding pooled buffers" before (outstanding ());
  Sched.run (fun () ->
      let& dev = testbed ~mib:64 in
      (let& fs = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose) in
       (* The base snapshot recovery replays the journal over. *)
       Fs.sync_meta fs;
       let& be =
         ( Backend_wal.create fs ~db_name:"w.db" ~checkpoint_threshold:(Size.kib 64) (),
           Backend_wal.dispose )
       in
       let& db = (Db.open_db (Backend_wal.backend be), dispose_pager) in
       (* Few enough fsyncs that the FFS journal ring does not wrap. *)
       fill db 40;
       checkb "checkpoints ran" true (Backend_wal.checkpoints_done be > 0));
      let& fs = (Fs.mount dev ~kind:Fs.Ffs, Fs.dispose) in
      let& be = (Backend_wal.recover fs ~db_name:"w.db" (), Backend_wal.dispose) in
      let& _db = (Db.open_db (Backend_wal.backend be), dispose_pager) in
      ());
  checki "wal: outstanding pooled buffers" before (outstanding ())

let test_wal_checkpoint_triggers () =
  in_dev ~mib:128 (fun dev ->
      with_wal_db dev ~checkpoint_threshold:(Size.kib 256) ~db_name:"ck.db" @@ fun be db ->
      let tbl = Db.create_table db "t" in
      let v = String.make 128 'v' in
      for i = 0 to 499 do
        Db.with_write_txn db (fun () ->
            Db.put tbl ~key:(Db.key_of_int i) ~value:v)
      done;
      checkb "checkpoints ran" true (Backend_wal.checkpoints_done be > 0);
      (* Data survives checkpointing. *)
      check_opt "row" (Some v) (Db.get tbl (Db.key_of_int 250)))
    ()

(* The checkpoint copies the latest image of every logged page into the
   db file, in ascending page order. Pages are logged in descending
   order over three transactions, some rewritten; the third commit
   reaches the threshold and checkpoints. Afterwards every page reads
   back its last image from the db file. The pages are 8 apart, so
   each sits in its own 32 KiB FFS block. Two simulated times are
   pinned: the checkpointing commit, and the read-back after the buffer
   cache shrinks to four blocks. The cache holds the db file's blocks
   in the order the checkpoint wrote them, so that order decides which
   pages the read-back misses, and a checkpoint that wrote in another
   order moves the second value. *)
let test_wal_checkpoint_page_order () =
  in_dev ~mib:128 (fun dev ->
      let& fs = (Fs.mkfs dev ~kind:Fs.Ffs, Fs.dispose) in
      let pgno i = (8 * i) + 1 in
      let txns = [ [ 9; 8; 7; 6 ]; [ 8; 6; 4; 2 ]; [ 7; 5; 3; 1; 0 ] ] in
      let frames = List.length (List.concat txns) in
      (* Frames are a 24-byte header and a page. *)
      let& be =
        ( Backend_wal.create fs ~db_name:"order.db"
            ~checkpoint_threshold:(frames * (24 + Page.size)) (),
          Backend_wal.dispose )
      in
      let b = Backend_wal.backend be in
      let image i txn = Bytes.make Page.size (Char.chr ((i * 16) + txn)) in
      let last = Array.make 10 0 in
      let commit_ns = ref 0 in
      List.iteri
        (fun txn pages ->
          let t0 = Sched.now () in
          b.Pager.b_commit (List.map (fun i -> (pgno i, image i txn)) pages);
          commit_ns := Sched.now () - t0;
          List.iter (fun i -> last.(i) <- txn) pages)
        txns;
      checki "one checkpoint" 1 (Backend_wal.checkpoints_done be);
      checki "checkpointing commit, simulated ns" 320800 !commit_ns;
      (* One miss on another file evicts the oldest clean blocks. *)
      Fs.set_cache_capacity fs 4;
      Fs.write fs (Fs.open_file fs "other") ~off:0 (Bytes.make Page.size 'o');
      let t0 = Sched.now () in
      for i = 0 to 9 do
        match b.Pager.b_read_page (pgno i) with
        | None -> Alcotest.failf "page %d missing from the db file" (pgno i)
        | Some got ->
          checkb (Printf.sprintf "page %d holds its last image" (pgno i)) true
            (Bytes.equal got (image i last.(i)));
          Msnap_util.Pool.recycle got
      done;
      checki "read-back through a squeezed cache, simulated ns" 316370
        (Sched.now () - t0))
    ()

let test_msnap_fewer_calls_than_wal () =
  in_dev ~mib:128 (fun wal_dev ->
      (* The Table 7 effect in miniature: the same workload needs an fsync
         + writes per txn on the baseline, one msnap_persist on MemSnap.
         Both halves share one run, so each reads its own counts as the
         difference across it. *)
      let count = Msnap_sim.Metrics.count in
      (with_wal_db wal_dev ~db_name:"w.db" @@ fun _ db ->
       let tbl = Db.create_table db "t" in
       for i = 0 to 99 do
         Db.with_write_txn db (fun () -> Db.put tbl ~key:(Db.key_of_int i) ~value:"v")
       done);
      let fsyncs = count Msnap_sim.Probe.db_fsync in
      let writes = count Msnap_sim.Probe.db_write in
      let persists0 = count Msnap_sim.Probe.db_memsnap in
      let& dev = testbed ~mib:128 in
      let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
      let& db2 = (msnap_db k ~db_name:"m.db", dispose_pager) in
      let tbl2 = Db.create_table db2 "t" in
      for i = 0 to 99 do
        Db.with_write_txn db2 (fun () -> Db.put tbl2 ~key:(Db.key_of_int i) ~value:"v")
      done;
      let persists = count Msnap_sim.Probe.db_memsnap - persists0 in
      checkb "baseline fsyncs per txn" true (fsyncs >= 100);
      checkb "baseline writes amplified" true (writes > 100);
      checkb "memsnap single call per txn" true (persists <= 102);
      checki "no fsync under memsnap" 0 (count Msnap_sim.Probe.db_fsync - fsyncs))
    ()

(* Runs last: every case before it returned what it took. *)
let test_suite_returns_buffers () =
  checki "outstanding pooled buffers" suite_start (outstanding ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sqlite"
    [
      ( "page",
        [
          tc "leaf cells" test_page_leaf_cells;
          tc "search" test_page_search;
          tc "delete/compact" test_page_delete_and_compact;
          tc "interior" test_page_interior;
          tc "free space after tail delete" test_page_free_space_after_tail_delete;
          QCheck_alcotest.to_alcotest prop_page_free_space_exact;
          QCheck_alcotest.to_alcotest prop_page_search_reference;
          QCheck_alcotest.to_alcotest prop_page_compare_shared_prefix;
          tc "compare allocates nothing" test_page_compare_alloc_free;
        ] );
      ( "btree",
        [
          tc "insert/find" test_btree_insert_find;
          tc "update" test_btree_update;
          tc "sequential 5k" test_btree_many_sequential;
          tc "random 5k" test_btree_many_random;
          tc "iter sorted" test_btree_iter_sorted;
          tc "range" test_btree_range;
          tc "delete" test_btree_delete;
          QCheck_alcotest.to_alcotest prop_btree_model;
          tc "pager rollback across a split" test_pager_rollback_split;
          tc "pager rollback reloads (msnap)" test_pager_rollback_msnap;
          tc "pager rollback reloads (wal)" test_pager_rollback_wal;
        ] );
      ( "db",
        [
          tc "over wal backend" test_db_over_wal;
          tc "over msnap backend" test_db_over_msnap;
          tc "rollback" test_db_rollback;
          tc "rollback on a powered-off device" test_rollback_powered_off;
          tc "recovery (msnap)" test_db_recovery_msnap;
          tc "crash loses uncommitted" test_db_crash_uncommitted_lost_msnap;
          tc "wal checkpoints" test_wal_checkpoint_triggers;
          tc "wal checkpoint page order" test_wal_checkpoint_page_order;
          tc "call counts" test_msnap_fewer_calls_than_wal;
          tc "disposed machines return buffers" test_disposed_machines_return_buffers;
        ] );
      ( "pool",
        [ tc "suite returns every buffer" test_suite_returns_buffers ] );
    ]
