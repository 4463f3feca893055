module Sched = Msnap_sim.Sched
module Costs = Msnap_sim.Costs
module Fvec = Msnap_util.Fvec

let block_size = 8192

type smgr = {
  s_read : rel:string -> blockno:int -> Bytes.t;
  s_write : rel:string -> blockno:int -> Bytes.t -> unit;
  s_flush : rel:string -> unit;
}

type buf = {
  b_rel : string;
  b_blockno : int;
  b_data : Bytes.t;
  mutable b_dirty : bool;
  mutable b_usage : int;
}

type t = {
  smgr : smgr;
  buffers : (string * int, buf) Hashtbl.t;
  capacity : int;
  clock : (string * int) Fvec.t;
      (* crude sweep order: insertion, newest at the END (the old list
         kept newest at the head; the sweep below walks from the end so
         the visit order — and thus every eviction decision, which is a
         simulated value — is unchanged). Removal shifts in place
         instead of rebuilding the list. *)
}

let create ?(nbuffers = 2048) smgr =
  { smgr; buffers = Hashtbl.create nbuffers; capacity = nbuffers;
    clock = Fvec.create () }

let evict_one t =
  (* Clock sweep: decrement usage along the ring; evict the first zero.
     Walks newest-to-oldest (end-to-start), restarting up to twice when
     the ring is exhausted without an eviction — exactly the old
     list-based traversal. Removing index [i] shifts only already
     visited elements, so the downward walk is unaffected. *)
  let rec sweep passes i =
    if i < 0 then begin
      if passes < 2 then sweep (passes + 1) (Fvec.length t.clock - 1)
    end
    else begin
      let key = Fvec.get t.clock i in
      match Hashtbl.find t.buffers key with
      | exception Not_found ->
        Fvec.remove_at t.clock i;
        sweep passes (i - 1)
      | b ->
        if b.b_usage > 0 then begin
          b.b_usage <- b.b_usage - 1;
          sweep passes (i - 1)
        end
        else begin
          if b.b_dirty then begin
            t.smgr.s_write ~rel:b.b_rel ~blockno:b.b_blockno b.b_data;
            b.b_dirty <- false
          end;
          Hashtbl.remove t.buffers key;
          Fvec.remove_at t.clock i
        end
    end
  in
  sweep 0 (Fvec.length t.clock - 1)

let read_buffer t ~rel ~blockno =
  Sched.cpu Costs.buffer_cache_lookup;
  let key = (rel, blockno) in
  match Hashtbl.find t.buffers key with
  | b ->
    b.b_usage <- min 5 (b.b_usage + 1);
    b.b_data
  | exception Not_found ->
    if Hashtbl.length t.buffers >= t.capacity then evict_one t;
    let data = t.smgr.s_read ~rel ~blockno in
    let b = { b_rel = rel; b_blockno = blockno; b_data = data; b_dirty = false; b_usage = 1 } in
    Hashtbl.replace t.buffers key b;
    Fvec.push t.clock key;
    b.b_data

let mark_dirty t ~rel ~blockno =
  match Hashtbl.find t.buffers (rel, blockno) with
  | b -> b.b_dirty <- true
  | exception Not_found -> ()

let flush_rel t ~rel =
  Hashtbl.iter
    (fun _ b ->
      if b.b_dirty && b.b_rel = rel then begin
        t.smgr.s_write ~rel:b.b_rel ~blockno:b.b_blockno b.b_data;
        b.b_dirty <- false
      end)
    t.buffers;
  t.smgr.s_flush ~rel

let flush_all t =
  let rels = Hashtbl.create 8 in
  Hashtbl.iter (fun (rel, _) _ -> Hashtbl.replace rels rel ()) t.buffers;
  Hashtbl.iter (fun rel () -> flush_rel t ~rel) rels

let dirty_count t =
  Hashtbl.fold (fun _ b acc -> if b.b_dirty then acc + 1 else acc) t.buffers 0

let resident t = Hashtbl.length t.buffers
