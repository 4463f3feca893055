(* The scripted crash workloads — one per engine.

   Each workload is deliberately small and single-threaded: the value of
   the crash matrix comes from visiting every durable boundary the
   script produces, not from making the script elaborate. Every acked
   durability point (persist, commit, fsync) records one History step
   with the full expected state, so the checker can demand that recovery
   after a crash anywhere lands on a candidate step.

   Each script also owns its recovery side: [<engine>_recover] mounts
   the post-crash device through the engine's ordinary recovery entry
   and returns a dump of the recovered state in the same encoding its
   [state ()] records, so the checker compares the two without knowing
   either engine or encoding.

   Scripts must be deterministic in their command stream: fixed key
   sets, fixed-size value cells, no randomness, no time. *)

module Sched = Msnap_sim.Sched
module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Db = Msnap_sqlite.Db
module Backend_wal = Msnap_sqlite.Backend_wal
module Storage = Msnap_pg.Storage
module Pg = Msnap_pg.Pg
module Redo = Msnap_pg.Redo
module Heap = Msnap_pg.Heap
module Rocks = Msnap_rocks.Rocks
module History = Msnap_faults.History
module Checker = Msnap_faults.Checker

(* Every workload runs on the same geometry: the two-disk testbed
   stripe, so torn tails exercise the per-member seed derivation. Each
   run registers the teardown of what it builds ([Sched.on_exit]) where
   it builds it, this device included. *)
let mk_dev () =
  let dev = Device.testbed ~mib:128 in
  Sched.on_exit (fun () -> Device.dispose dev);
  dev

(* The one place an engine's mount error becomes the checker's
   [Unmountable]: wrap the mount call itself, so an error from any later
   recovery step still fails the point. *)
let mount f =
  try f () with Store.Corrupt msg | Fs.Mount_error msg ->
    raise (Checker.Unmountable msg)

(* A length-prefixed tag at the start of [b]; [None] when the prefix
   is garbage. *)
let put_tag b tag =
  Bytes.set_uint16_le b 0 (String.length tag);
  Bytes.blit_string tag 0 b 2 (String.length tag)

let get_tag b =
  let n = Bytes.get_uint16_le b 0 in
  if n > Bytes.length b - 2 then None else Some (Bytes.sub_string b 2 n)

(* --- msnap: value cells in one region, one μCheckpoint per update --- *)

let msnap_region = "cwl"
let msnap_region_len = 64 * 4096

(* One cell per page: per-thread dirty tracking is page-granular. *)
let msnap_cells = List.init 6 (fun i -> (Printf.sprintf "c%d" i, i * 4096))
let msnap_steps = 30

(* A value cell is a fixed 256-byte slot: every update writes the full
   slot, so the command stream is independent of the value lengths. *)
let cell_cap = 256

let cell_write k md ~off v =
  let b = Bytes.make cell_cap '\000' in
  put_tag b v;
  Msnap.write k md ~off b

let msnap_run dev record =
  let hist = History.create () in
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let md = Msnap.open_region k ~name:msnap_region ~len:msnap_region_len () in
  let values = Array.make (List.length msnap_cells) "" in
  let state () = List.mapi (fun i (l, _) -> (l, values.(i))) msnap_cells in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to msnap_steps do
    let i = s mod List.length msnap_cells in
    let _, off = List.nth msnap_cells i in
    let v = Printf.sprintf "s%d" s in
    cell_write k md ~off v;
    ignore (Msnap.persist k ~region:md ());
    values.(i) <- v;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  hist

(* Boot a whole fresh machine over the post-crash device and remap the
   region at its fixed address; pages fault back in from the last
   committed μCheckpoint as the dump reads each cell. *)
let msnap_recover dev =
  let k = mount (fun () -> Msnap.boot ~format:false dev) in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let md = Msnap.open_region k ~name:msnap_region ~len:msnap_region_len () in
  fun () ->
    List.map
      (fun (l, off) ->
        match get_tag (Msnap.read k md ~off ~len:cell_cap) with
        | Some v -> (l, v)
        | None ->
          Checker.fail "msnap: cell %s at +%#x recovered with a garbage length"
            l off)
      msnap_cells

let msnap_workload =
  {
    Checker.w_name = "msnap";
    w_device = mk_dev;
    w_run = msnap_run;
    w_recover = msnap_recover;
  }

(* --- objstore: tagged-block commits to two objects --- *)

let obj_names = [ "alpha"; "beta" ]
let obj_blocks = 4
let obj_steps = 30

(* A whole block led by its tag, which names the commit that wrote it. *)
let tag_page tag =
  let b = Bytes.make Msnap_objstore.Layout.block_size '\000' in
  put_tag b tag;
  b

let objstore_run dev record =
  let hist = History.create () in
  Store.format dev;
  let st = Store.mount dev in
  Sched.on_exit (fun () -> Store.dispose st);
  let objs = List.map (fun n -> (n, Store.create st ~name:n ())) obj_names in
  let epochs = Hashtbl.create 4 in
  let tags = Hashtbl.create 16 in
  List.iter (fun (n, o) -> Hashtbl.replace epochs n (Store.epoch o)) objs;
  let state () =
    List.concat_map
      (fun (n, _) ->
        ("@" ^ n, string_of_int (Hashtbl.find epochs n))
        :: List.filter_map
             (fun i ->
               Option.map
                 (fun tag -> (n ^ ":" ^ string_of_int i, tag))
                 (Hashtbl.find_opt tags (n, i)))
             (List.init obj_blocks Fun.id))
      objs
  in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to obj_steps do
    let n, o = List.nth objs (s mod 2) in
    let idx = s / 2 mod obj_blocks in
    let tag = Printf.sprintf "%s.%d.s%d" n idx s in
    let ep = Store.commit st o [ (idx, tag_page tag) ] in
    Hashtbl.replace epochs n ep;
    Hashtbl.replace tags (n, idx) tag;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  hist

(* Each object's committed epoch plus the tag of every populated block:
   commits are atomic header flips, so both must come from one step. *)
let objstore_recover dev =
  let st = mount (fun () -> Store.mount dev) in
  Sched.on_exit (fun () -> Store.dispose st);
  fun () ->
    List.concat_map
      (fun n ->
        match Store.open_obj st ~name:n with
        | None -> []
        | Some o ->
          ("@" ^ n, string_of_int (Store.epoch o))
          :: List.filter_map
               (fun i ->
                 Option.map
                   (fun b ->
                     match get_tag b with
                     | Some tag -> (n ^ ":" ^ string_of_int i, tag)
                     | None ->
                       Checker.fail "objstore: %s block %d has a garbage tag" n i)
                   (Store.read_block st o i))
               (List.init obj_blocks Fun.id))
      obj_names

let objstore_workload =
  {
    Checker.w_name = "objstore";
    w_device = mk_dev;
    w_run = objstore_run;
    w_recover = objstore_recover;
  }

(* --- fs: append-and-fsync to two files over the FFS journal --- *)

let fs_files = [ "a.log"; "b.log" ]
let fs_steps = 30

let fs_run dev record =
  let hist = History.create () in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  Sched.on_exit (fun () -> Fs.dispose fs);
  (* mkfs is host-side; write the base snapshot the journal replays
     over before declaring readiness. *)
  Fs.sync_meta fs;
  let files = List.map (fun n -> (n, Fs.open_file fs n, Buffer.create 256)) fs_files in
  let state () =
    List.map (fun (n, _, contents) -> (n, Buffer.contents contents)) files
  in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to fs_steps do
    let _, f, contents = List.nth files (s mod 2) in
    let data = Printf.sprintf "rec-%03d;" s in
    Fs.write fs f ~off:(Buffer.length contents) (Bytes.of_string data);
    Fs.fsync fs f;
    Buffer.add_string contents data;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  hist

(* Each file's full contents: the FFS journal replays whole
   transactions, so every file reads back as it did after some acked
   fsync. *)
let fs_recover dev =
  let fs = mount (fun () -> Fs.mount dev ~kind:Fs.Ffs) in
  Sched.on_exit (fun () -> Fs.dispose fs);
  fun () ->
    List.map
      (fun n ->
        let f = Fs.open_file fs n in
        (n, Bytes.to_string (Fs.read fs f ~off:0 ~len:(Fs.size fs f))))
      fs_files

let fs_workload =
  {
    Checker.w_name = "fs";
    w_device = mk_dev;
    w_run = fs_run;
    w_recover = fs_recover;
  }

(* --- sqlite: one-row transactions on the WAL backend --- *)

let sqlite_db = "db"
let sqlite_table = "t"
let sqlite_steps = 28

let sqlite_run ~checkpoint_threshold dev record =
  let hist = History.create () in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  Sched.on_exit (fun () -> Fs.dispose fs);
  Fs.sync_meta fs;
  let bw = Backend_wal.create fs ~db_name:sqlite_db ~checkpoint_threshold () in
  Sched.on_exit (fun () -> Backend_wal.dispose bw);
  let db = Db.open_db (Backend_wal.backend bw) in
  Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager db));
  let tb = Db.create_table db sqlite_table in
  let model = Hashtbl.create 16 in
  let state () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
  in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to sqlite_steps do
    let key = Printf.sprintf "k%02d" (s mod 12) in
    let v = Printf.sprintf "v%d" s in
    Db.with_write_txn db (fun () -> Db.put tb ~key ~value:v);
    Hashtbl.replace model key v;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  hist

(* Mount, replay the WAL's longest intact committed prefix over the db
   file, and open the database on it. The dump is the table's rows; a
   table missing from the catalog dumps as empty. *)
let sqlite_recover ~checkpoint_threshold dev =
  let fs = mount (fun () -> Fs.mount dev ~kind:Fs.Ffs) in
  Sched.on_exit (fun () -> Fs.dispose fs);
  let bw = Backend_wal.recover fs ~db_name:sqlite_db ~checkpoint_threshold () in
  Sched.on_exit (fun () -> Backend_wal.dispose bw);
  let db = Db.open_db (Backend_wal.backend bw) in
  Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager db));
  fun () ->
    match Db.table db sqlite_table with
    | None -> []
    | Some tb ->
      let acc = ref [] in
      Db.iter tb (fun k v -> acc := (k, v) :: !acc);
      List.rev !acc

let sqlite_script ~name ~checkpoint_threshold =
  {
    Checker.w_name = name;
    w_device = mk_dev;
    w_run = sqlite_run ~checkpoint_threshold;
    w_recover = sqlite_recover ~checkpoint_threshold;
  }

(* No checkpoints: the crash matrix exercises WAL replay alone. *)
let sqlite_workload = sqlite_script ~name:"sqlite" ~checkpoint_threshold:max_int

(* Every commit checkpoints: its frames are copied into the db file,
   both files are fsynced and the WAL is truncated, so crashes also land
   inside the in-place db-file rewrite and between the truncate and the
   next frame. *)
let sqlite_ckpt_workload =
  sqlite_script ~name:"sqlite-ckpt" ~checkpoint_threshold:4

(* --- pg: one insert per transaction on the buffered (WAL) variant --- *)

let pg_table = "t"
let pg_steps = 26

let pg_run dev record =
  let hist = History.create () in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  Sched.on_exit (fun () -> Fs.dispose fs);
  Fs.sync_meta fs;
  (* Huge checkpoint threshold: the heap files are never written, so
     redo replays full-page images + deltas over zeros — the classic
     WAL recovery path. *)
  let st = Storage.ffs fs ~wal_checkpoint_bytes:max_int () in
  let pg = Pg.open_db st in
  let rows = ref [] in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:[];
  for s = 1 to pg_steps do
    let key = Printf.sprintf "k%03d" s in
    let v = Printf.sprintf "v%d" s in
    Pg.with_txn pg (fun txn ->
        Pg.insert pg txn ~table:pg_table ~key (key ^ "=" ^ v));
    rows := (key, v) :: !rows;
    History.step hist record ~label:(Printf.sprintf "s%d" s)
      ~state:(List.rev !rows)
  done;
  hist

(* Mount and replay the WAL, then dump every live ([xmax = 0]) tuple as
   the "key=value" row the script inserted. Replayed tuples all belong
   to WAL-durable transactions, so commit status needs no (volatile)
   clog. *)
let pg_recover dev =
  let fs = mount (fun () -> Fs.mount dev ~kind:Fs.Ffs) in
  Sched.on_exit (fun () -> Fs.dispose fs);
  let st, _applied = Redo.recover fs ~wal_checkpoint_bytes:max_int () in
  let heap = Heap.recover st ~rel:pg_table in
  fun () ->
    let rows = ref [] in
    for blockno = Heap.nblocks heap - 1 downto 0 do
      Heap.iter_block heap blockno (fun _tid _xmin xmax data ->
          if xmax = 0 then
            match String.index_opt data '=' with
            | Some i ->
              rows :=
                ( String.sub data 0 i,
                  String.sub data (i + 1) (String.length data - i - 1) )
                :: !rows
            | None ->
              Checker.fail "pg: tuple in block %d is not a key=value row"
                blockno)
    done;
    !rows

let pg_workload =
  {
    Checker.w_name = "pg";
    w_device = mk_dev;
    w_run = pg_run;
    w_recover = pg_recover;
  }

(* --- rocks: WAL-free puts into the persistent skip list --- *)

let rocks_name = "cw"
let rocks_config = { Rocks.default_config with region_pages = 1024 }
let rocks_steps = 28

let rocks_run dev record =
  let hist = History.create () in
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let db = Rocks.open_db ~config:rocks_config (Rocks.Memsnap k) ~name:rocks_name in
  (* The first put persists the skip list's header page; only from here
     on is the region guaranteed recoverable. *)
  Rocks.put db ~key:"init" ~value:"1";
  let model = Hashtbl.create 16 in
  Hashtbl.replace model "init" "1";
  let state () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
  in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to rocks_steps do
    let key = Printf.sprintf "k%02d" (s mod 12) in
    let v = Printf.sprintf "v%d" s in
    Rocks.put db ~key ~value:v;
    Hashtbl.replace model key v;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  hist

(* Boot a whole fresh machine over the post-crash device and reopen the
   skip list; the dump is its full contents, sorted by key. *)
let rocks_recover dev =
  let k = mount (fun () -> Msnap.boot ~format:false dev) in
  Sched.on_exit (fun () -> Msnap.dispose k);
  let db = Rocks.recover ~config:rocks_config k ~name:rocks_name in
  fun () -> Rocks.seek db "" ~n:max_int

let rocks_workload =
  {
    Checker.w_name = "rocks";
    w_device = mk_dev;
    w_run = rocks_run;
    w_recover = rocks_recover;
  }

let all =
  [
    msnap_workload;
    objstore_workload;
    fs_workload;
    sqlite_workload;
    sqlite_ckpt_workload;
    pg_workload;
    rocks_workload;
  ]

let by_name name = List.find_opt (fun w -> w.Checker.w_name = name) all
let names = List.map (fun w -> w.Checker.w_name) all
