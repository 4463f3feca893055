module Costs = Msnap_sim.Costs
module Sched = Msnap_sim.Sched

type dirty = (int * Ptloc.t) list

(* Protect slot [s] of a leaf's PTE array if it is still present and
   writable. Callers charge first, and [Sched.cpu] is a scheduling
   point, so the PTE is read again here. *)
let clear_writable slots s =
  let pte = slots.(s) in
  if Pte.present pte && Pte.writable pte then begin
    slots.(s) <- Pte.set_writable pte false;
    true
  end
  else false

let finish t dirty protected_count =
  Aspace.shootdown t (List.map fst dirty);
  protected_count

let scan_mapping t ~mapping_va ~mapping_len dirty =
  let vpn = Addr.vpn_of_va mapping_va in
  let n = Addr.pages_spanned ~off:mapping_va ~len:mapping_len in
  let protected_count = ref 0 in
  let visited =
    Ptable.iter_leaves (Aspace.page_table t) ~vpn ~n ~f:(fun slots _ s0 s1 ->
        for s = s0 to s1 do
          let pte = slots.(s) in
          if Pte.present pte && Pte.writable pte then begin
            Sched.cpu Costs.pte_update_bulk;
            if clear_writable slots s then incr protected_count
          end
        done)
  in
  Sched.cpu (visited * Costs.pte_visit);
  finish t dirty !protected_count

let per_page_walk t dirty =
  let pt = Aspace.page_table t in
  let protected_count = ref 0 in
  List.iter
    (fun (vpn, _) ->
      Sched.cpu (Costs.pt_walk_sw + Costs.pte_update);
      match Ptable.find_loc pt vpn with
      | Some loc ->
        if clear_writable loc.Ptloc.slots loc.slot then incr protected_count
      | None -> ())
    dirty;
  finish t dirty !protected_count

let trace_buffer t dirty =
  let protected_count = ref 0 in
  List.iter
    (fun (_, loc) ->
      Sched.cpu Costs.pte_update;
      if clear_writable loc.Ptloc.slots loc.slot then incr protected_count)
    dirty;
  finish t dirty !protected_count
