module Sync = Msnap_sim.Sync

type region_ops = {
  ro_write : off:int -> Bytes.t -> unit;
  ro_read_into : off:int -> Bytes.t -> pos:int -> len:int -> unit;
  ro_persist : unit -> unit;
  ro_pages : int;
}

module Smap = Map.Make (String)

let page = 4096
let header = 16
let max_pair_size = page - header

(* Node page: u16 klen | u16 vlen | u32 next(id+1, 0 = nil) | u8 in_use |
   pad to 16 | key | value. *)

(* A node's page and the lock its writers hold until their μCheckpoint
   commits; the index head carries page 0's. *)
type slot = { id : int; lock : Sync.Mutex.t }

let slot id = { id; lock = Sync.Mutex.create () }

type t = {
  ops : region_ops;
  index : slot Skiplist.t; (* the volatile skip pointers *)
  mutable count : int;
  mutable next_id : int;
}

let node_off id = id * page

let empty ?seed ops =
  { ops; index = Skiplist.create ?seed (slot 0);
    count = 0; next_id = 1 }

(* Page id of [n]'s level-0 successor, -1 at the end. *)
let succ_id t n =
  let s = Skiplist.succ n in
  if Skiplist.is_end t.index s then -1 else s.value.id

(* Encode/decode buffers are per-op, not per-list: region ops charge
   [Sched.cpu] (and Aurora writes can park for a checkpoint), so a
   fiber may yield inside one with the buffer still lent out — a shared
   scratch would be clobbered by the next fiber's op. Each buffer is
   sized exactly (the simulated transfer length must not change); only
   the 7 header pad bytes need zeroing, the blits cover the rest. *)
let write_node t ~id ~key ~value ~next_id =
  let klen = String.length key and vlen = String.length value in
  if klen + vlen > max_pair_size then invalid_arg "Pskiplist: pair too large";
  let b = Bytes.create (header + klen + vlen) in
  Bytes.set_uint16_le b 0 klen;
  Bytes.set_uint16_le b 2 vlen;
  Bytes.set_int32_le b 4 (Int32.of_int (next_id + 1));
  Bytes.set_uint8 b 8 1;
  Bytes.fill b 9 (header - 9) '\000';
  Bytes.blit_string key 0 b header klen;
  Bytes.blit_string value 0 b (header + klen) vlen;
  t.ops.ro_write ~off:(node_off id) b

let write_next_field t ~id ~next_id =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (next_id + 1));
  t.ops.ro_write ~off:(node_off id + 4) b

let read_node_header t id =
  let b = Bytes.create header in
  t.ops.ro_read_into ~off:(node_off id) b ~pos:0 ~len:header;
  let klen = Bytes.get_uint16_le b 0 in
  let vlen = Bytes.get_uint16_le b 2 in
  let next = Int32.to_int (Bytes.get_int32_le b 4) - 1 in
  let in_use = Bytes.get_uint8 b 8 = 1 in
  (klen, vlen, next, in_use)

(* Single-copy string reads: the region copies straight into the
   result buffer, which becomes the string (the seed's ro_read +
   [Bytes.to_string] copied twice and allocated twice). *)
let read_string t ~off ~len =
  let b = Bytes.create len in
  t.ops.ro_read_into ~off b ~pos:0 ~len;
  Bytes.unsafe_to_string b

let read_key t id klen = read_string t ~off:(node_off id + header) ~len:klen

let read_value t id =
  let klen, vlen, _, _ = read_node_header t id in
  read_string t ~off:(node_off id + header + klen) ~len:vlen

let create ?seed ops =
  let t = empty ?seed ops in
  write_node t ~id:0 ~key:"" ~value:"" ~next_id:(-1);
  t.ops.ro_persist ();
  t

(* Per-node locks are taken in ascending key order across a batch (the
   batch is sorted), which makes the discipline deadlock-free; [held]
   records locks already owned so a shared predecessor is not re-locked. *)
let lock_if_new held (m : Sync.Mutex.t) =
  if not (List.memq m !held) then begin
    Sync.Mutex.lock m;
    held := m :: !held
  end

(* Apply one write, accumulating into [held] the locks that must stay
   taken until the μCheckpoint commits — the paper's per-node locking
   discipline (property ③). Each attempt descends into a fresh path:
   other fibers search while this one yields, and the path is linked
   along after the yields. *)
let apply t ~held ~key ~value =
  let rec attempt () =
    let path = Skiplist.path t.index in
    let prev = Skiplist.find_path t.index key path in
    let n = Skiplist.succ prev in
    if Skiplist.holds t.index n key then begin
      (* In-place update: one dirty page. Re-validate reachability after
         taking the lock — a racing delete may have unlinked the node. *)
      lock_if_new held n.value.lock;
      if Skiplist.succ (Skiplist.pred0 t.index key) == n then begin
        let _, _, next, _ = read_node_header t n.value.id in
        write_node t ~id:n.value.id ~key ~value ~next_id:next
      end
      else attempt ()
    end
    else begin
      lock_if_new held prev.value.lock;
      (* Another insert may have slipped in while the lock was taken. *)
      let n = Skiplist.succ prev in
      if not (Skiplist.is_end t.index n || n.key >= key) then attempt ()
      else begin
        if t.next_id >= t.ops.ro_pages then
          failwith "Pskiplist: region full";
        let id = t.next_id in
        t.next_id <- id + 1;
        let level = Skiplist.draw_level t.index in
        let slot = slot id in
        lock_if_new held slot.lock;
        (* New node first, then the predecessor's next field: exactly the
           two pages this transaction dirties. *)
        write_node t ~id ~key ~value ~next_id:(succ_id t prev);
        write_next_field t ~id:prev.value.id ~next_id:id;
        Skiplist.link t.index path key slot ~level;
        t.count <- t.count + 1
      end
    end
  in
  attempt ()

let insert_batch t pairs =
  (* Ascending key order gives a global lock order (see [apply]); the
     last write wins for duplicate keys within a batch. *)
  let merged = List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty pairs in
  let held = ref [] in
  Smap.iter (fun key value -> apply t ~held ~key ~value) merged;
  t.ops.ro_persist ();
  List.iter Sync.Mutex.unlock !held

let insert t ~key ~value = insert_batch t [ (key, value) ]

let find t key =
  match Skiplist.find t.index key with
  | Some s -> Some (read_value t s.id)
  | None -> None

let delete t key =
  let rec attempt () =
    let path = Skiplist.path t.index in
    let prev = Skiplist.find_path t.index key path in
    let n = Skiplist.succ prev in
    if not (Skiplist.holds t.index n key) then false
    else begin
      Sync.Mutex.lock prev.value.lock;
      if Skiplist.succ prev != n then begin
        Sync.Mutex.unlock prev.value.lock;
        attempt ()
      end
      else begin
        write_next_field t ~id:prev.value.id ~next_id:(succ_id t n);
        Skiplist.unlink t.index path n;
        t.count <- t.count - 1;
        t.ops.ro_persist ();
        Sync.Mutex.unlock prev.value.lock;
        true
      end
    end
  in
  attempt ()

let iter_from t key f =
  Skiplist.iter_from t.index key (fun k s -> f k (read_value t s.id))

let count t = t.count

(* Rebuild the volatile index by walking the persisted linked list — the
   §7.2 recovery path ("traverses the linked list nodes to recompute skip
   pointers"). *)
let recover ?seed ops =
  let t = empty ?seed ops in
  let tails = Skiplist.path t.index in
  let rec walk id =
    if id >= 0 then begin
      if id >= t.next_id then t.next_id <- id + 1;
      let klen, _, next, in_use = read_node_header t id in
      if in_use && id <> 0 then begin
        let key = read_key t id klen in
        Skiplist.append t.index tails key (slot id);
        t.count <- t.count + 1
      end;
      walk next
    end
  in
  let _, _, first, _ = read_node_header t 0 in
  walk first;
  t
