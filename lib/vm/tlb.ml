module Costs = Msnap_sim.Costs
module Sched = Msnap_sim.Sched
module Itab = Msnap_util.Itab
module Iring = Msnap_util.Iring

(* Flat TLB: an open-addressed int table for the cached translations
   plus a ring buffer for the FIFO replacement order. Lookup, insertion
   and eviction allocate nothing in steady state; hit/miss counts and
   eviction decisions are bit-for-bit those of the previous
   Hashtbl+Queue implementation (they are simulated values).

   FIFO subtleties preserved exactly: [invalidate_page] removes only
   from the table, so the ring accumulates stale vpns (and duplicates
   when a page is re-inserted); an insert at capacity pops exactly one
   ring head whether or not it is stale, so the table can transiently
   exceed capacity — just as the Queue-based version behaved. *)

type 'a t = {
  tab : 'a Itab.t;
  fifo : Iring.t;
  capacity : int;
  absent : 'a;
  mutable last : 'a; (* payload of the last probe hit, or [absent] *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(entries = 1536) ~absent () =
  {
    tab = Itab.create ~initial:entries ~absent ();
    fifo = Iring.create ~initial:entries ();
    capacity = entries;
    absent;
    last = absent;
    hits = 0;
    misses = 0;
  }

(* [probe t vpn] counts a hit or a miss and stashes the hit's payload
   for {!hit_payload}. Allocation-free: the probe/payload split replaces
   the old [find : _ -> _ option], whose [Some] boxed every hit. *)
let probe t vpn =
  let s = Itab.slot t.tab vpn in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    t.last <- Itab.slot_value t.tab s;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.last <- t.absent;
    false
  end

let hit_payload t = t.last

let insert t vpn payload =
  if not (Itab.mem t.tab vpn) then begin
    if Itab.length t.tab >= t.capacity then begin
      (* Pop exactly one FIFO head; it may be stale (already
         invalidated), in which case nothing leaves the table. *)
      let victim = Iring.pop t.fifo in
      if victim >= 0 then Itab.remove t.tab victim
    end;
    Iring.push t.fifo vpn
  end;
  Itab.set t.tab vpn payload

let update t vpn payload =
  let s = Itab.slot t.tab vpn in
  if s >= 0 then Itab.set_slot t.tab s payload

let access t vpn =
  if probe t vpn then true
  else begin
    insert t vpn t.absent;
    false
  end

let invalidate_page t vpn = Itab.remove t.tab vpn

(* Every cached vpn has a ring entry (an insert of an absent vpn pushes
   one; a vpn leaves the ring only by the pop that evicts it), so
   popping the ring empties the table, and each popped entry was pushed
   by an insert since the last flush. [Itab.remove] reclaims its
   tombstones as the table empties, so this leaves it just as
   [Itab.clear] would, without touching the 2-4k slots the ring never
   named. *)
let flush t =
  while not (Iring.is_empty t.fifo) do
    Itab.remove t.tab (Iring.pop t.fifo)
  done

let shootdown ?n t vpns =
  let n = match n with Some n -> n | None -> List.length vpns in
  if n = 0 then ()
  else if n <= Costs.tlb_flush_threshold then begin
    Sched.cpu (Costs.tlb_shootdown + (n * Costs.tlb_invalidate_page));
    List.iter (invalidate_page t) vpns
  end
  else begin
    Sched.cpu (Costs.tlb_shootdown + Costs.tlb_flush_all);
    flush t
  end

let hits t = t.hits
let misses t = t.misses
