(* The scripted crash workloads — one per engine.

   Each workload is deliberately small and single-threaded: the value of
   the crash matrix comes from visiting every durable boundary the
   script produces, not from making the script elaborate. Every acked
   durability point (persist, commit, fsync) records one History step
   with the full expected state, so the checker can demand that recovery
   after a crash anywhere lands on a candidate step.

   Scripts must be deterministic in their command stream: fixed key
   sets, fixed-size value cells where the engine offers them, no
   randomness, no time. *)

module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Db = Msnap_sqlite.Db
module Backend_wal = Msnap_sqlite.Backend_wal
module Storage = Msnap_pg.Storage
module Pg = Msnap_pg.Pg
module Redo = Msnap_pg.Redo
module Rocks = Msnap_rocks.Rocks
module History = Msnap_faults.History
module Checker = Msnap_faults.Checker

(* Every workload runs on the same geometry: the two-disk testbed
   stripe, so torn tails exercise the per-member seed derivation. *)
let mk_dev () = Device.testbed ~mib:128

(* --- msnap: value cells in one region, one μCheckpoint per update --- *)

let msnap_region = "cwl"
let msnap_region_len = 64 * 4096

(* One cell per page: per-thread dirty tracking is page-granular. *)
let msnap_cells = List.init 6 (fun i -> (Printf.sprintf "c%d" i, i * 4096))
let msnap_steps = 30

let msnap_run dev record =
  let hist = History.create () in
  let k = Msnap.boot ~format:true dev in
  let md = Msnap.open_region k ~name:msnap_region ~len:msnap_region_len () in
  let values = Array.make (List.length msnap_cells) "" in
  let state () = List.mapi (fun i (l, _) -> (l, values.(i))) msnap_cells in
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:(state ());
  for s = 1 to msnap_steps do
    let i = s mod List.length msnap_cells in
    let _, off = List.nth msnap_cells i in
    let v = Printf.sprintf "s%d" s in
    Msnap.cell_write k md ~off v;
    ignore (Msnap.persist k ~region:md ());
    values.(i) <- v;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  Msnap.dispose k;
  hist

let msnap_workload =
  {
    Checker.w_name = "msnap";
    w_device = mk_dev;
    w_run = msnap_run;
    w_recoverable =
      (module (val Msnap.recoverable ~region:msnap_region
                     ~len:msnap_region_len ~cells:msnap_cells)
      : Msnap_faults.Recoverable.S);
  }

(* --- objstore: tagged-block commits to two objects --- *)

let obj_names = [ "alpha"; "beta" ]
let obj_blocks = 4
let obj_steps = 30

let objstore_run dev record =
  let hist = History.create () in
  Store.format dev;
  let st = Store.mount dev in
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
    let ep = Store.commit st o [ (idx, Store.tag_page tag) ] in
    Hashtbl.replace epochs n ep;
    Hashtbl.replace tags (n, idx) tag;
    History.step hist record ~label:(Printf.sprintf "s%d" s) ~state:(state ())
  done;
  Store.dispose st;
  hist

let objstore_workload =
  {
    Checker.w_name = "objstore";
    w_device = mk_dev;
    w_run = objstore_run;
    w_recoverable =
      (module (val Store.recoverable ~objects:obj_names ~blocks:obj_blocks)
      : Msnap_faults.Recoverable.S);
  }

(* --- fs: append-and-fsync to two files over the FFS journal --- *)

let fs_files = [ "a.log"; "b.log" ]
let fs_steps = 30

let fs_run dev record =
  let hist = History.create () in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
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
  Fs.dispose fs;
  hist

let fs_workload =
  {
    Checker.w_name = "fs";
    w_device = mk_dev;
    w_run = fs_run;
    w_recoverable =
      (module (val Fs.recoverable ~kind:Fs.Ffs ~files:fs_files)
      : Msnap_faults.Recoverable.S);
  }

(* --- sqlite: one-row transactions on the WAL backend --- *)

let sqlite_db = "db"
let sqlite_table = "t"
let sqlite_steps = 28

let sqlite_run ~checkpoint_threshold dev record =
  let hist = History.create () in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  Fs.sync_meta fs;
  let bw = Backend_wal.create fs ~db_name:sqlite_db ~checkpoint_threshold () in
  let db = Db.open_db (Backend_wal.backend bw) in
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
  Msnap_sqlite.Pager.dispose (Db.pager db);
  Backend_wal.dispose bw;
  Fs.dispose fs;
  hist

let sqlite_script ~name ~checkpoint_threshold =
  {
    Checker.w_name = name;
    w_device = mk_dev;
    w_run = sqlite_run ~checkpoint_threshold;
    w_recoverable =
      (module (val Db.recoverable ~db_name:sqlite_db ~table:sqlite_table
                     ~checkpoint_threshold ())
      : Msnap_faults.Recoverable.S);
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
  Fs.dispose fs;
  hist

let pg_workload =
  {
    Checker.w_name = "pg";
    w_device = mk_dev;
    w_run = pg_run;
    w_recoverable =
      (module (val Redo.recoverable ~table:pg_table
                     ~wal_checkpoint_bytes:max_int ())
      : Msnap_faults.Recoverable.S);
  }

(* --- rocks: WAL-free puts into the persistent skip list --- *)

let rocks_name = "cw"
let rocks_config = { Rocks.default_config with region_pages = 1024 }
let rocks_steps = 28

let rocks_run dev record =
  let hist = History.create () in
  let k = Msnap.boot ~format:true dev in
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
  Msnap.dispose k;
  hist

let rocks_workload =
  {
    Checker.w_name = "rocks";
    w_device = mk_dev;
    w_run = rocks_run;
    w_recoverable =
      (module (val Rocks.recoverable ~config:rocks_config ~name:rocks_name ())
      : Msnap_faults.Recoverable.S);
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
