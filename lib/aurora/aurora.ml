module Sched = Msnap_sim.Sched
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Sync = Msnap_sim.Sync
module Costs = Msnap_sim.Costs
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Phys = Msnap_vm.Phys
module Pte = Msnap_vm.Pte
module Ptloc = Msnap_vm.Ptloc
module Ptable = Msnap_vm.Ptable
module Store = Msnap_objstore.Store
module Pool = Msnap_util.Pool

module Kernel = struct
  type t = {
    aspace : Aspace.t;
    store : Store.t;
    mutable threads : int;
    mutable stopped : bool;
    world_mutex : Sync.Mutex.t;
    world_resumed : Sync.Condition.t;
    fault_lock : Sync.Mutex.t;
        (* Serializes COW fault handling: two faults on the same shadowed
           page must not both duplicate it. *)
    mutable regions : region list;
  }

  and region = {
    k : t;
    r_name : string;
    r_va : int;
    r_len : int;
    obj : Store.obj;
    (* Flat combining: one checkpoint runs at a time; callers that arrive
       meanwhile are satisfied by the next round. *)
    checkpoints : unit Sync.Group.t;
    mutable cow_copies : Phys.page list;
        (* Frames that COW faults left unmapped during the flight, dirty
           snapshot frames and clean ones alike. A dirty one may still be
           referenced by the checkpoint's IO, so all are freed at
           collapse, after the commit returns. *)
    mutable breakdown : (int * int * int * int) option;
    dirty_slots : int array;
        (* [Pte.shadow_leaf]'s scratch, one leaf long. Per region, not
           global: bench cells checkpoint on several domains at once. *)
  }

  let create ~aspace ~store () =
    {
      aspace;
      store;
      threads = 0;
      stopped = false;
      world_mutex = Sync.Mutex.create ();
      world_resumed = Sync.Condition.create ();
      fault_lock = Sync.Mutex.create ();
      regions = [];
    }

  let boot ~format dev =
    if format then Store.format dev;
    let store = Store.mount dev in
    create ~aspace:(Aspace.create (Phys.create ())) ~store ()

  let dispose t =
    Store.dispose t.store;
    Phys.dispose (Aspace.phys t.aspace)

  let aspace t = t.aspace
  let register_thread t = t.threads <- t.threads + 1

  (* Application threads park here while the world is stopped. *)
  let wait_world t =
    if t.stopped then
      Sync.Mutex.with_lock t.world_mutex (fun () ->
          while t.stopped do
            Sync.Condition.wait t.world_resumed t.world_mutex
          done)

  let stop_world t =
    (* Threads are parked from the moment the IPIs go out; the stall cost
       is the wait for the last one to reach its safe point. *)
    t.stopped <- true;
    Sched.cpu (max 1 t.threads * Costs.thread_stop_signal)

  let resume_world t =
    t.stopped <- false;
    Sync.Mutex.with_lock t.world_mutex (fun () ->
        Sync.Condition.broadcast t.world_resumed)
end

module Region = struct
  open Kernel

  type t = Kernel.region

  type breakdown = { stall : int; shadow : int; io : int; collapse : int }

  (* Write fault during an in-flight checkpoint: redirect the writer to a
     fresh copy so the shadow frame stays stable ("shadow object"). The
     in-flight mark is the PTE's COW bit (set by [shadow_region], cleared
     by [collapse_region]); it is re-read under the kernel fault lock
     because a concurrent fault may already have COWed or unprotected the
     page. The copy's PTE drops the bit: the new frame is not in flight. *)
  let on_write_fault r (fault : Aspace.fault) =
    Sync.Mutex.with_lock r.k.fault_lock @@ fun () ->
    let loc = fault.Aspace.f_loc in
    let pte = Ptloc.get loc in
    if Pte.writable pte then ()
    else if Pte.cow pte then begin
      if Trace.is_on () then
        Trace.instant Probe.aurora_cow_fault
          ~argi:("vpn", fault.Aspace.f_vpn);
      let phys = Aspace.phys fault.Aspace.f_aspace in
      let page = Phys.get phys (Pte.frame pte) in
      let copy = Phys.copy_page phys page in
      Phys.rmap_remove page loc;
      if Phys.rmap_is_empty page then r.cow_copies <- page :: r.cow_copies;
      Phys.rmap_add copy loc;
      let pte = Ptloc.get loc in
      Ptloc.set loc
        (Pte.set_cow
           (Pte.set_writable (Pte.set_frame pte copy.Phys.frame) true)
           false)
    end
    else Ptloc.set loc (Pte.set_writable pte true)

  let create k ~name ~va ~len =
    let obj =
      match Store.open_obj k.store ~name with
      | Some o -> o
      | None -> Store.create k.store ~name ~meta:va ()
    in
    let pager =
      { Aspace.page_in =
          (fun rel ->
            (* Pooled staging instead of [read_block]'s fresh block,
               copied into a frame allocated here. The charge sequence
               is radix lookup, device read, frame alloc, then a
               page-sized memcpy. *)
            let staging = Pool.alloc Msnap_objstore.Layout.block_size in
            Fun.protect
              ~finally:(fun () -> Pool.recycle staging)
              (fun () ->
                if Store.read_block_into k.store obj rel staging then begin
                  let p = Phys.alloc (Aspace.phys k.aspace) in
                  Sched.cpu (Costs.memcpy Addr.page_size);
                  Bytes.blit staging 0 p.Phys.data 0 Addr.page_size;
                  `Page p
                end
                else `Zero))
      }
    in
    let r =
      { k; r_name = name; r_va = va; r_len = len; obj;
        checkpoints = Sync.Group.create (); cow_copies = []; breakdown = None;
        dirty_slots = Array.make Addr.fanout 0 }
    in
    ignore
      (Aspace.map k.aspace ~name:("aurora:" ^ name) ~va ~len ~writable:true
         ~new_pages_writable:false ~pager ~on_write_fault:(on_write_fault r)
         ());
    k.regions <- r :: k.regions;
    r

  let base r = r.r_va
  let length r = r.r_len

  let write r ~off data =
    if off < 0 || off + Bytes.length data > r.r_len then
      invalid_arg "Aurora.Region.write: out of range";
    wait_world r.k;
    Aspace.write r.k.aspace ~va:(r.r_va + off) data

  let read r ~off ~len =
    if off < 0 || off + len > r.r_len then
      invalid_arg "Aurora.Region.read: out of range";
    Aspace.read r.k.aspace ~va:(r.r_va + off) ~len

  (* Same charges as [read], into a caller-owned buffer. *)
  let read_into r ~off buf ~pos ~len =
    if off < 0 || off + len > r.r_len then
      invalid_arg "Aurora.Region.read_into: out of range";
    Aspace.read_into r.k.aspace ~va:(r.r_va + off) buf ~pos ~len

  (* Shadow one region: collect the dirty set and COW-protect every
     present page. Returns the dirty (rel, frame) list in ascending page
     order. Runs with the world stopped. [Pte.shadow_leaf] rewrites each
     leaf window's PTE words in place and lists its dirty (writable)
     slots; a frame is resolved only for those. *)
  let shadow_region r =
    let aspace = r.k.aspace in
    let pt = Aspace.page_table aspace in
    let phys = Aspace.phys aspace in
    let start_vpn = Addr.vpn_of_va r.r_va in
    let npages = Addr.pages_spanned ~off:r.r_va ~len:r.r_len in
    let scratch = r.dirty_slots in
    let dirty = ref [] in
    let present = ref 0 in
    let visited =
      Ptable.iter_leaves pt ~vpn:start_vpn ~n:npages ~f:(fun slots base s0 s1 ->
          let res = Pte.shadow_leaf slots ~s0 ~s1 ~dirty:scratch in
          present := !present + Pte.leaf_present res;
          for i = 0 to Pte.leaf_dirty res - 1 do
            let s = scratch.(i) in
            dirty :=
              (base + s - start_vpn, Phys.get phys (Pte.frame slots.(s)))
              :: !dirty
          done)
    in
    Sched.cpu ((visited * Costs.pte_visit) + (!present * Costs.pte_update_bulk));
    Msnap_vm.Tlb.flush (Aspace.tlb aspace);
    Sched.cpu Costs.tlb_flush_all;
    List.rev !dirty

  (* Collapse the shadow object back into the base: another pass over the
     whole mapping merging page lists ([Pte.collapse_leaf] clears every
     present PTE's COW bit), plus freeing the frames COW faults orphaned
     during the flight. *)
  let collapse_region r =
    let aspace = r.k.aspace in
    let pt = Aspace.page_table aspace in
    let phys = Aspace.phys aspace in
    let start_vpn = Addr.vpn_of_va r.r_va in
    let npages = Addr.pages_spanned ~off:r.r_va ~len:r.r_len in
    let present = ref 0 in
    let visited =
      Ptable.iter_leaves pt ~vpn:start_vpn ~n:npages ~f:(fun slots _ s0 s1 ->
          present := !present + Pte.collapse_leaf slots ~s0 ~s1)
    in
    (* Merging the shadow's page list into the base costs a visit per
       page plus the list manipulation. *)
    Sched.cpu ((visited * Costs.pte_visit) + (!present * Costs.pte_update_bulk));
    List.iter (Phys.free phys) r.cow_copies;
    r.cow_copies <- []

  let flush_dirty r dirty =
    (* Zero-copy: the commit's scatter/gather list references the page
       frames themselves. Safe under the ownership rule — every PTE that
       maps a dirty frame carries the COW bit from [shadow_region] on, so
       writers COW away from the frame while the IO is in flight, and
       [collapse_region] (which clears the bit and may free orphaned
       frames) only runs after the commit returns. *)
    let pages = List.map (fun (rel, page) -> (rel, page.Phys.data)) dirty in
    if pages <> [] then ignore (Store.commit r.k.store r.obj pages)

  (* One full checkpoint round. *)
  let run_checkpoint r =
    let t0 = Sched.now () in
    stop_world r.k;
    let t_stall = Sched.now () in
    (* Each phase span is emitted the moment it ends so its reconstructed
       start (now - dur) lands where the phase actually began. *)
    if Trace.is_on () then
      Trace.complete Probe.aurora_stall ~dur:(t_stall - t0)
        ~argi:("threads", r.k.threads);
    let dirty = shadow_region r in
    let t_shadow = Sched.now () in
    if Trace.is_on () then
      Trace.complete Probe.aurora_shadow ~dur:(t_shadow - t_stall)
        ~argi:("dirty_pages", List.length dirty);
    resume_world r.k;
    flush_dirty r dirty;
    let t_io = Sched.now () in
    if Trace.is_on () then
      Trace.complete Probe.aurora_io ~dur:(t_io - t_shadow);
    collapse_region r;
    let t_collapse = Sched.now () in
    r.breakdown <-
      Some (t_stall - t0, t_shadow - t_stall, t_io - t_shadow, t_collapse - t_io);
    if Trace.is_on () then begin
      Trace.complete Probe.aurora_collapse ~dur:(t_collapse - t_io);
      Trace.complete Probe.aurora_checkpoint ~dur:(t_collapse - t0)
        ~args:
          [ ("region", Trace.S r.r_name);
            ("dirty_pages", Trace.I (List.length dirty)) ]
    end

  let checkpoint r =
    let iv = Sync.Ivar.create () in
    Sync.Group.submit r.checkpoints ~round:(fun _ -> run_checkpoint r) () iv;
    Sync.await iv

  let last_breakdown r =
    Option.map
      (fun (stall, shadow, io, collapse) -> { stall; shadow; io; collapse })
      r.breakdown
end

(* OS state serialization: registers, FDs, kqueues, sysctl state... modeled
   as a fixed CPU cost plus scanning the non-region address space. *)
let os_state_cost = 350_000

(* The rest of the process address space (heap, code, stacks) that an
   application checkpoint shadows and collapses although no region
   covers it: 64 Ki pages = 256 MiB. *)
let other_mapped_pages = 65_536

let checkpoint_app (k : Kernel.t) =
  let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
  Kernel.stop_world k;
  let dirty_by_region =
    List.map (fun r -> (r, Region.shadow_region r)) k.Kernel.regions
  in
  (* Shadow the rest of the address space (heap, stacks, code). *)
  Sched.cpu (other_mapped_pages * Costs.pte_visit);
  Sched.cpu os_state_cost;
  Kernel.resume_world k;
  List.iter (fun (r, dirty) -> Region.flush_dirty r dirty) dirty_by_region;
  List.iter (fun (r, _) -> Region.collapse_region r) dirty_by_region;
  (* Collapse pass over the non-region address space as well. *)
  Sched.cpu (other_mapped_pages * Costs.pte_visit);
  if Trace.is_on () then
    Trace.complete Probe.aurora_checkpoint_app
      ~dur:(Sched.now () - trace_t0)
      ~argi:("regions", List.length k.Kernel.regions)
