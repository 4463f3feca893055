module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Pool = Msnap_util.Pool

type backend = {
  b_read_page : int -> Bytes.t option;
  b_commit : (int * Bytes.t) list -> unit;
}

(* Page numbers are dense (1..hwm), so every per-page table is an array
   indexed by page number, grown by doubling. [Bytes.empty] marks an
   absent buffer: a page buffer is never physically equal to it. *)
type t = {
  backend : backend;
  mutable cache : Bytes.t array;
  mutable ncached : int;
  (* [stamp.(pgno) = txn_id] iff the open transaction dirtied [pgno]. *)
  mutable stamp : int array;
  mutable dirty : int list; (* page numbers, each once *)
  mutable txn_id : int;
  mutable in_txn : bool;
  mutable hwm : int; (* highest allocated page number *)
  mutable hwm_at_begin : int;
  write_lock : Sync.Mutex.t;
}

(* Userspace cost of a page-cache probe (hash + pin). *)
let cache_probe_cost = 120

let none = Bytes.empty

let ensure t pgno =
  let cap = Array.length t.cache in
  if pgno >= cap then begin
    let cap' = max (pgno + 1) (2 * cap) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.cache <- grow t.cache none;
    t.stamp <- grow t.stamp 0
  end

let cached t pgno = if pgno < Array.length t.cache then t.cache.(pgno) else none

let install t pgno b =
  ensure t pgno;
  if t.cache.(pgno) == none then t.ncached <- t.ncached + 1;
  t.cache.(pgno) <- b

let create backend =
  let t =
    { backend; cache = Array.make 1024 none; ncached = 0;
      stamp = Array.make 1024 0; dirty = [];
      txn_id = 0; in_txn = false; hwm = 1; hwm_at_begin = 1;
      write_lock = Sync.Mutex.create () }
  in
  (* Page 1 always exists (database header / catalog). *)
  (match backend.b_read_page 1 with
  | Some b -> install t 1 b
  | None -> install t 1 (Pool.alloc_zeroed Page.size));
  t

let begin_write t =
  Sync.Mutex.lock t.write_lock;
  assert (not t.in_txn);
  t.in_txn <- true;
  t.txn_id <- t.txn_id + 1;
  t.hwm_at_begin <- t.hwm

let check_txn t = if not t.in_txn then invalid_arg "Pager: no open transaction"

let get_page t pgno =
  Sched.cpu cache_probe_cost;
  let b = cached t pgno in
  if b != none then b
  else begin
    let b =
      match t.backend.b_read_page pgno with
      | Some b -> b
      | None -> Pool.alloc_zeroed Page.size
    in
    install t pgno b;
    if pgno > t.hwm then t.hwm <- pgno;
    b
  end

(* Add [pgno] to the transaction's dirty set; [false] if already in. *)
let mark_dirty t pgno =
  ensure t pgno;
  if t.stamp.(pgno) = t.txn_id then false
  else begin
    t.stamp.(pgno) <- t.txn_id;
    t.dirty <- pgno :: t.dirty;
    true
  end

(* No pre-image is taken: the backend still holds the committed image,
   and [rollback] reloads from it. *)
let page_for_write t pgno =
  check_txn t;
  let b = get_page t pgno in
  ignore (mark_dirty t pgno : bool);
  b

let alloc_page t =
  check_txn t;
  t.hwm <- t.hwm + 1;
  let pgno = t.hwm in
  install t pgno (Pool.alloc_zeroed Page.size);
  ignore (mark_dirty t pgno : bool);
  pgno

let end_txn t =
  t.dirty <- [];
  t.in_txn <- false;
  Sync.Mutex.unlock t.write_lock

let commit t =
  check_txn t;
  let pgnos = List.sort Int.compare t.dirty in
  if pgnos <> [] then
    t.backend.b_commit (List.map (fun pgno -> (pgno, t.cache.(pgno))) pgnos);
  end_txn t

(* SQLite's WAL-mode rollback (pagerUndoCallback): every page the
   transaction dirtied leaves the cache, and its buffer goes back to the
   pool (nothing else references it). The next [get_page] reloads the
   committed image from the backend, charging that read then. *)
let rollback t =
  check_txn t;
  List.iter
    (fun pgno ->
      Pool.recycle t.cache.(pgno);
      t.cache.(pgno) <- none;
      t.ncached <- t.ncached - 1)
    t.dirty;
  (* Page numbers above the pre-transaction high-water mark are handed
     out again by the next [alloc_page], as zeroed pages. *)
  t.hwm <- t.hwm_at_begin;
  end_txn t

let in_txn t = t.in_txn
let npages t = t.hwm

(* End-of-run teardown: the page cache holds one pooled buffer per page
   ever touched — for a TATP-sized database that is tens of thousands
   of 4 KiB buffers, by far the largest pooled working set in the
   bench. Returning them lets the next experiment on this domain run
   nearly miss-free. *)
let dispose t =
  if t.in_txn then invalid_arg "Pager.dispose: open transaction";
  Array.iteri
    (fun pgno b ->
      if b != none then begin
        Pool.recycle b;
        t.cache.(pgno) <- none
      end)
    t.cache;
  t.ncached <- 0

let restore_hwm t hwm = if hwm > t.hwm then t.hwm <- hwm

let hwm_changed_in_txn t = t.in_txn && t.hwm <> t.hwm_at_begin
let cached_pages t = t.ncached
let dirty_pages t = List.length t.dirty
