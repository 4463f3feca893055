let bs = Bufmgr.block_size
let slot_base = 8
let tuple_header = 10

module Sync = Msnap_sim.Sync
module Sched = Msnap_sim.Sched

(* Per-thread scratch for the 2/4-byte header accesses: storage ops are
   scheduling points, so one shared buffer could be clobbered by another
   green thread between fill and consume — but within a thread the ops
   are sequential, so a per-tid pair of buffers makes every header
   read/write allocation-free in steady state. *)
type scratch = { s2 : Bytes.t; s4 : Bytes.t }

type t = {
  st : Storage.t;
  rel : string;
  mutable hblocks : int; (* blocks in use; block [hblocks-1] is the tail *)
  insert_lock : Sync.Mutex.t;
      (* Slot allocation spans several storage operations (each a
         scheduling point); inserts into one relation serialize the way
         PostgreSQL's buffer content locks do. *)
  scratches : (int, scratch) Hashtbl.t; (* Sched tid -> scratch *)
}

type tid = int * int

let create st ~rel =
  { st; rel; hblocks = 0; insert_lock = Sync.Mutex.create ();
    scratches = Hashtbl.create 8 }

let scratch_for t =
  let tid = Sched.tid_int (Sched.self ()) in
  match Hashtbl.find t.scratches tid with
  | s -> s
  | exception Not_found ->
    let s = { s2 = Bytes.create 2; s4 = Bytes.create 4 } in
    Hashtbl.replace t.scratches tid s;
    s

let read_u16 t ~blockno ~off =
  let b = (scratch_for t).s2 in
  Storage.read_into t.st ~rel:t.rel ~blockno ~off b ~pos:0 ~len:2;
  Bytes.get_uint16_le b 0

let read_u32 t ~blockno ~off =
  let b = (scratch_for t).s4 in
  Storage.read_into t.st ~rel:t.rel ~blockno ~off b ~pos:0 ~len:4;
  Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff

let write_u16 t ~blockno ~off v =
  let b = (scratch_for t).s2 in
  Bytes.set_uint16_le b 0 v;
  Storage.write t.st ~rel:t.rel ~blockno ~off b

let write_u32 t ~blockno ~off v =
  let b = (scratch_for t).s4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Storage.write t.st ~rel:t.rel ~blockno ~off b

let block_meta t blockno =
  let nitems = read_u16 t ~blockno ~off:0 in
  let content = read_u16 t ~blockno ~off:2 in
  let content = if nitems = 0 && content = 0 then bs else content in
  (nitems, content)

let free_space ~nitems ~content = content - (slot_base + (2 * nitems))

(* Rebuild the volatile block count from storage after a crash: blocks
   fill front to back and a block becomes visible only once its [nitems]
   header is written, so the population is the longest prefix of blocks
   with [nitems > 0]. *)
let recover st ~rel =
  let t = create st ~rel in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < Storage.rel_block_limit do
    if read_u16 t ~blockno:!n ~off:0 > 0 then incr n else continue := false
  done;
  t.hblocks <- !n;
  t

let insert t ~xmin data =
  let need = tuple_header + String.length data in
  if need + 2 > bs - slot_base then invalid_arg "Heap.insert: tuple too large";
  Sync.Mutex.with_lock t.insert_lock @@ fun () ->
  let blockno =
    if t.hblocks = 0 then begin
      t.hblocks <- 1;
      0
    end
    else begin
      let tail = t.hblocks - 1 in
      let nitems, content = block_meta t tail in
      if free_space ~nitems ~content >= need + 2 then tail
      else begin
        t.hblocks <- t.hblocks + 1;
        t.hblocks - 1
      end
    end
  in
  let nitems, content = block_meta t blockno in
  let off = content - need in
  let slot = nitems in
  (* Tuple body, then slot pointer, then header — three small writes, the
     realistic dirtying pattern for WAL and page tracking. *)
  let tuple = Bytes.create need in
  Bytes.set_int32_le tuple 0 (Int32.of_int xmin);
  Bytes.set_int32_le tuple 4 0l;
  Bytes.set_uint16_le tuple 8 (String.length data);
  Bytes.blit_string data 0 tuple tuple_header (String.length data);
  Storage.write t.st ~rel:t.rel ~blockno ~off tuple;
  write_u16 t ~blockno ~off:(slot_base + (2 * slot)) off;
  write_u16 t ~blockno ~off:0 (nitems + 1);
  write_u16 t ~blockno ~off:2 off;
  (blockno, slot)

let tuple_off t (blockno, slot) =
  let nitems = read_u16 t ~blockno ~off:0 in
  if blockno >= t.hblocks || slot >= nitems then None
  else Some (read_u16 t ~blockno ~off:(slot_base + (2 * slot)))

let fetch t tid =
  match tuple_off t tid with
  | None -> None
  | Some off ->
    let blockno = fst tid in
    let xmin = read_u32 t ~blockno ~off in
    let xmax = read_u32 t ~blockno ~off:(off + 4) in
    let len = read_u16 t ~blockno ~off:(off + 8) in
    let data = Bytes.create len in
    Storage.read_into t.st ~rel:t.rel ~blockno ~off:(off + tuple_header) data
      ~pos:0 ~len;
    (* [data] is fresh and unaliased; claim it as the string instead of
       copying. *)
    let data = Bytes.unsafe_to_string data in
    Some (xmin, xmax, data)

let set_xmax t tid xmax =
  match tuple_off t tid with
  | None -> invalid_arg "Heap.set_xmax: bad tid"
  | Some off -> write_u32 t ~blockno:(fst tid) ~off:(off + 4) xmax

let nblocks t = t.hblocks

let iter_block t blockno f =
  if blockno < t.hblocks then begin
    let nitems = read_u16 t ~blockno ~off:0 in
    for slot = 0 to nitems - 1 do
      match fetch t (blockno, slot) with
      | Some (xmin, xmax, data) -> f (blockno, slot) xmin xmax data
      | None -> ()
    done
  end
