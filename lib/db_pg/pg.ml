module Sync = Msnap_sim.Sync
module Sched = Msnap_sim.Sched

(* Parser/planner/executor CPU per statement: PostgreSQL spends far more
   time above the storage engine than in it, which is why the paper's
   Fig. 6 persistence deltas are small percentages (its storage backend
   alone is 600 KSLOC). *)
let statement_cost = 25_000

type row_lock = { mutex : Sync.Mutex.t; mutable holder : int }

type t = {
  st : Storage.t;
  heaps : (string, Heap.t) Hashtbl.t;
  (* Volatile hash index: key -> version tids, newest first. *)
  indexes : (string, (string, Heap.tid list) Hashtbl.t) Hashtbl.t;
  row_locks : (string * string, row_lock) Hashtbl.t;
  clog : (int, bool) Hashtbl.t; (* xid -> committed *)
  mutable next_xid : int;
}

type txn = {
  t_xid : int;
  snapshot : int; (* xids < snapshot with committed clog are visible *)
  mutable held_locks : row_lock list;
}

let open_db st =
  {
    st;
    heaps = Hashtbl.create 16;
    indexes = Hashtbl.create 16;
    row_locks = Hashtbl.create 256;
    clog = Hashtbl.create 1024;
    next_xid = 1;
  }

let storage t = t.st

let heap t table =
  match Hashtbl.find_opt t.heaps table with
  | Some h -> h
  | None ->
    let h = Heap.create t.st ~rel:table in
    Hashtbl.replace t.heaps table h;
    Hashtbl.replace t.indexes table (Hashtbl.create 1024);
    h

let index t table =
  ignore (heap t table);
  Hashtbl.find t.indexes table

let committed t xid = Hashtbl.find_opt t.clog xid = Some true

(* MVCC visibility: the version is visible when its inserter is this
   transaction or committed before the snapshot, and no visible deleter
   has stamped it. *)
let visible t txn ~xmin ~xmax =
  let insert_visible =
    xmin = txn.t_xid || (committed t xmin && xmin < txn.snapshot)
  in
  let delete_visible =
    xmax <> 0 && (xmax = txn.t_xid || (committed t xmax && xmax < txn.snapshot))
  in
  insert_visible && not delete_visible

let begin_txn t =
  let x = t.next_xid in
  t.next_xid <- x + 1;
  Hashtbl.replace t.clog x false;
  { t_xid = x; snapshot = x; held_locks = [] }

let release_locks txn =
  List.iter
    (fun l ->
      l.holder <- -1;
      Sync.Mutex.unlock l.mutex)
    txn.held_locks;
  txn.held_locks <- []

let commit_txn t txn =
  (* Durability point first (WAL fsync / msnap_persist), then the commit
     becomes visible and the row locks drop. *)
  Storage.commit t.st;
  Hashtbl.replace t.clog txn.t_xid true;
  release_locks txn;
  Storage.checkpoint_tick t.st

let abort_txn t txn =
  Hashtbl.replace t.clog txn.t_xid false;
  release_locks txn

let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | v ->
    commit_txn t txn;
    v
  | exception exn ->
    abort_txn t txn;
    raise exn

let row_lock t txn ~table ~key =
  let lk =
    match Hashtbl.find_opt t.row_locks (table, key) with
    | Some l -> l
    | None ->
      let l = { mutex = Sync.Mutex.create (); holder = -1 } in
      Hashtbl.replace t.row_locks (table, key) l;
      l
  in
  if lk.holder <> txn.t_xid then begin
    Sync.Mutex.lock lk.mutex;
    lk.holder <- txn.t_xid;
    txn.held_locks <- lk :: txn.held_locks
  end

let insert t txn ~table ~key data =
  Sched.cpu statement_cost;
  let h = heap t table in
  row_lock t txn ~table ~key;
  let tid = Heap.insert h ~xmin:txn.t_xid data in
  let idx = index t table in
  Sched.cpu 200;
  let versions = Option.value ~default:[] (Hashtbl.find_opt idx key) in
  Hashtbl.replace idx key (tid :: versions)

let visible_version t txn ~table ~key =
  Sched.cpu statement_cost;
  let h = heap t table in
  let idx = index t table in
  Sched.cpu 200;
  match Hashtbl.find_opt idx key with
  | None -> None
  | Some versions ->
    let rec probe = function
      | [] -> None
      | tid :: rest -> (
        match Heap.fetch h tid with
        | Some (xmin, xmax, data) when visible t txn ~xmin ~xmax ->
          Some (tid, data)
        | Some _ | None -> probe rest)
    in
    probe versions

let lookup t txn ~table ~key =
  Option.map snd (visible_version t txn ~table ~key)

let update t txn ~table ~key data =
  row_lock t txn ~table ~key;
  match visible_version t txn ~table ~key with
  | None -> false
  | Some (old_tid, _) ->
    let h = heap t table in
    Heap.set_xmax h old_tid txn.t_xid;
    let tid = Heap.insert h ~xmin:txn.t_xid data in
    let idx = index t table in
    let versions = Option.value ~default:[] (Hashtbl.find_opt idx key) in
    Hashtbl.replace idx key (tid :: versions);
    true

let update_with t txn ~table ~key f =
  row_lock t txn ~table ~key;
  match visible_version t txn ~table ~key with
  | None -> false
  | Some (_, old_data) -> update t txn ~table ~key (f old_data)
