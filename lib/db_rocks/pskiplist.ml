module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Rng = Msnap_util.Rng

type region_ops = {
  ro_write : off:int -> Bytes.t -> unit;
  ro_read_into : off:int -> Bytes.t -> pos:int -> len:int -> unit;
  ro_persist : unit -> unit;
  ro_pages : int;
}

let page = 4096
let header = 16
let max_pair_size = page - header
let max_level = 12
let hop_cost = 25

(* Node page: u16 klen | u16 vlen | u32 next(id+1, 0 = nil) | u8 in_use |
   pad to 16 | key | value. *)

type vnode = {
  id : int;
  key : string;
  lock : Sync.Mutex.t;
  mutable nexts : vnode option array;
}

type t = {
  ops : region_ops;
  head : vnode;
  rng : Rng.t;
  mutable level : int;
  mutable count : int;
  mutable next_id : int;
}

let node_off id = id * page

let mk_vnode id key lvl =
  { id; key; lock = Sync.Mutex.create (); nexts = Array.make lvl None }

let random_level t =
  let rec go l = if l < max_level && Rng.int t.rng 4 = 0 then go (l + 1) else l in
  go 1

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

let create ?(seed = 0x5C1B) ops =
  let t =
    { ops; head = mk_vnode 0 "" max_level; rng = Rng.create seed; level = 1;
      count = 0; next_id = 1 }
  in
  write_node t ~id:0 ~key:"" ~value:"" ~next_id:(-1);
  t.ops.ro_persist ();
  t

(* Predecessors at every level (volatile index walk). *)
let find_path t key =
  let update = Array.make max_level t.head in
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let continue_ = ref true in
    while !continue_ do
      Sched.cpu hop_cost;
      match !x.nexts.(lvl) with
      | Some n when n.key < key -> x := n
      | Some _ | None -> continue_ := false
    done;
    update.(lvl) <- !x
  done;
  update

(* Link [node] into the volatile index below [lvl] along [update]. *)
let link_volatile t node lvl update =
  if lvl > t.level then t.level <- lvl;
  for i = 0 to lvl - 1 do
    node.nexts.(i) <- update.(i).nexts.(i);
    update.(i).nexts.(i) <- Some node
  done

(* Validate the path still holds after taking the predecessor's lock
   (another insert may have slipped in between). *)
let path_valid update key =
  let prev = update.(0) in
  match prev.nexts.(0) with
  | Some n -> n.key >= key
  | None -> true

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
   discipline (property ③). *)
let apply t ~held ~key ~value =
  let rec attempt () =
    let update = find_path t key in
    let prev = update.(0) in
    match prev.nexts.(0) with
    | Some n when n.key = key -> (
      (* In-place update: one dirty page. Re-validate reachability after
         taking the lock — a racing delete may have unlinked the node. *)
      lock_if_new held n.lock;
      let update' = find_path t key in
      match update'.(0).nexts.(0) with
      | Some m when m == n ->
        let _, _, next, _ = read_node_header t n.id in
        write_node t ~id:n.id ~key ~value ~next_id:next
      | Some _ | None -> attempt ())
    | _ ->
      lock_if_new held prev.lock;
      if not (path_valid update key) then attempt ()
      else begin
        if t.next_id >= t.ops.ro_pages then
          failwith "Pskiplist: region full";
        let id = t.next_id in
        t.next_id <- id + 1;
        let lvl = random_level t in
        let node = mk_vnode id key lvl in
        lock_if_new held node.lock;
        let next_id =
          match prev.nexts.(0) with Some n -> n.id | None -> -1
        in
        (* New node first, then the predecessor's next field: exactly the
           two pages this transaction dirties. *)
        write_node t ~id ~key ~value ~next_id;
        write_next_field t ~id:prev.id ~next_id:id;
        link_volatile t node lvl update;
        t.count <- t.count + 1
      end
  in
  attempt ()

let insert_batch t pairs =
  (* Ascending key order gives a global lock order (see [apply]); the
     last write wins for duplicate keys within a batch. *)
  let module M = Map.Make (String) in
  let merged = List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs in
  let held = ref [] in
  M.iter (fun key value -> apply t ~held ~key ~value) merged;
  t.ops.ro_persist ();
  List.iter Sync.Mutex.unlock !held

let insert t ~key ~value = insert_batch t [ (key, value) ]

let find t key =
  let update = find_path t key in
  match update.(0).nexts.(0) with
  | Some n when n.key = key -> Some (read_value t n.id)
  | Some _ | None -> None

let delete t key =
  let rec attempt () =
    let update = find_path t key in
    let prev = update.(0) in
    match prev.nexts.(0) with
    | Some n when n.key = key ->
      Sync.Mutex.lock prev.lock;
      if not (match prev.nexts.(0) with
              | Some n' -> n' == n
              | None -> false)
      then begin
        Sync.Mutex.unlock prev.lock;
        attempt ()
      end
      else begin
        let next_id = match n.nexts.(0) with Some s -> s.id | None -> -1 in
        write_next_field t ~id:prev.id ~next_id;
        (* Unlink at every level of the volatile index. *)
        for i = 0 to t.level - 1 do
          match update.(i).nexts.(i) with
          | Some m when m == n -> update.(i).nexts.(i) <- n.nexts.(i)
          | Some _ | None -> ()
        done;
        t.count <- t.count - 1;
        t.ops.ro_persist ();
        Sync.Mutex.unlock prev.lock;
        true
      end
    | Some _ | None -> false
  in
  attempt ()

let iter_from t key f =
  let update = find_path t key in
  let rec visit = function
    | None -> ()
    | Some n ->
      Sched.cpu hop_cost;
      if f n.key (read_value t n.id) then visit n.nexts.(0)
  in
  visit update.(0).nexts.(0)

let count t = t.count

(* Rebuild the volatile index by walking the persisted linked list — the
   §7.2 recovery path ("traverses the linked list nodes to recompute skip
   pointers"). *)
let recover ?(seed = 0x5C1B) ops =
  let t =
    { ops; head = mk_vnode 0 "" max_level; rng = Rng.create seed; level = 1;
      count = 0; next_id = 1 }
  in
  let tails = Array.make max_level t.head in
  let rec walk id =
    if id >= 0 then begin
      if id >= t.next_id then t.next_id <- id + 1;
      let klen, _, next, in_use = read_node_header t id in
      if in_use && id <> 0 then begin
        let key = read_key t id klen in
        let lvl = random_level t in
        if lvl > t.level then t.level <- lvl;
        let node = mk_vnode id key lvl in
        for i = 0 to lvl - 1 do
          tails.(i).nexts.(i) <- Some node;
          tails.(i) <- node
        done;
        t.count <- t.count + 1
      end;
      walk next
    end
  in
  let _, _, first, _ = read_node_header t 0 in
  walk first;
  t
