module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Costs = Msnap_sim.Costs
module Metrics = Msnap_sim.Metrics
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Phys = Msnap_vm.Phys
module Pte = Msnap_vm.Pte
module Ptloc = Msnap_vm.Ptloc
module Tlb = Msnap_vm.Tlb
module Itab = Msnap_util.Itab
module Store = Msnap_objstore.Store

exception Property_violation of string

type epoch = int

(* A dirty set is a struct-of-arrays arena: one slot per tracked page,
   parallel columns for the vpn, the rel page, the frame and the region.
   Appending (one per tracking fault) writes four cells; taking the set
   moves slots into a pooled "taken" arena — neither allocates in steady
   state. Slots are stored oldest-first; the old representation was a
   newest-first [entry list], so consumers that depend on entry order
   (it feeds commit grouping, a simulated value) scan downward. *)
type dset = {
  mutable d_vpn : int array;
  mutable d_rel : int array;
  mutable d_page : Phys.page array;
  mutable d_reg : region array;
  mutable d_len : int;
}

and region = {
  r_name : string;
  r_va : int;
  r_len : int;
  r_obj : Store.obj;
  r_kernel : t;
  frames : Phys.page array array;
      (* rel page -> shared frame; null_page = none. Two levels of
         512-slot leaves (see [frame]/[set_frame]). *)
  populating : Phys.page Sync.cell Itab.t;
      (* busy-page lock, keyed by rel page while a page-in is in flight:
         concurrent faults on the same missing page wait for the first to
         materialize the frame *)
  mutable r_aspaces : Aspace.t list;
  tickets : (int, Store.ticket) Hashtbl.t; (* epoch -> in-flight commit *)
  mutable r_taken : int list;
      (* [group_taken]'s scratch: this region's slots in the arena being
         grouped, highest first. Empty outside that function. *)
  mutable r_flow : int;
      (* Trace flow id of the pending (not yet persisted) μCheckpoint:
         allocated at the first tracked fault while tracing, consumed by
         the persist that takes the dirty set. Host-only; 0 = none. *)
}

and t = {
  store : Store.t;
  mutable phys : Phys.t option;
  mutable aspaces : Aspace.t list;
  regions : (string, region) Hashtbl.t;
  dirty : (int, dset) Hashtbl.t;
      (* thread id -> dirty set. Still a Hashtbl: [take_entries] folds
         over the tids, and that fold order feeds entry concatenation —
         a simulated value. Only the per-thread values went flat. *)
  spare : dset list ref;
      (* free list of taken arenas, reused across persists *)
  mutable strict : bool;
  mutable arena_cursor : int;
  fault_lock : Sync.Mutex.t;
      (* Serializes write-fault handling: the COW path blocks (page copy),
         and two concurrent faults on the same in-flight page must not
         both duplicate it. Real kernels hold the page busy lock here. *)
}

type md = region

(* A region's frame table is sized by the pages it touches, not by its
   length: a top array of 512-slot leaves, each materialized on its first
   store. Untouched ranges share [empty_leaf], which is never written, so
   a lookup is two loads and never hashes. *)
let leaf_bits = 9
let leaf_mask = (1 lsl leaf_bits) - 1
let empty_leaf = Array.make (1 lsl leaf_bits) Phys.null_page

let frame r rel = r.frames.(rel lsr leaf_bits).(rel land leaf_mask)

let set_frame r rel p =
  let i = rel lsr leaf_bits in
  if r.frames.(i) == empty_leaf then
    r.frames.(i) <- Array.make (1 lsl leaf_bits) Phys.null_page;
  r.frames.(i).(rel land leaf_mask) <- p

(* [populating]'s miss sentinel: never filled, never read. *)
let no_page_in : Phys.page Sync.cell = Sync.Ivar.create ()

let dset_create () =
  { d_vpn = [||]; d_rel = [||]; d_page = [||]; d_reg = [||]; d_len = 0 }

let grow_column a cap ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 cap;
  na

let dset_push d ~vpn ~rel page reg =
  let cap = Array.length d.d_vpn in
  if d.d_len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    d.d_vpn <- grow_column d.d_vpn cap ncap 0;
    d.d_rel <- grow_column d.d_rel cap ncap 0;
    d.d_page <- grow_column d.d_page cap ncap page;
    d.d_reg <- grow_column d.d_reg cap ncap reg
  end;
  let i = d.d_len in
  d.d_vpn.(i) <- vpn;
  d.d_rel.(i) <- rel;
  d.d_page.(i) <- page;
  d.d_reg.(i) <- reg;
  d.d_len <- i + 1

let init ~store =
  {
    store;
    phys = None;
    aspaces = [];
    regions = Hashtbl.create 8;
    dirty = Hashtbl.create 16;
    spare = ref [];
    strict = true;
    arena_cursor = Addr.msnap_base;
    fault_lock = Sync.Mutex.create ();
  }

let set_strict t v = t.strict <- v

let kernel_phys t =
  match t.phys with
  | Some p -> p
  | None -> invalid_arg "Msnap: no process attached"

let attach t aspace =
  (match t.phys with
  | None -> t.phys <- Some (Aspace.phys aspace)
  | Some p ->
    if not (p == Aspace.phys aspace) then
      invalid_arg "Msnap.attach: address spaces must share physical memory");
  t.aspaces <- t.aspaces @ [ aspace ]

let boot ~format dev =
  if format then Store.format dev;
  let k = init ~store:(Store.mount dev) in
  attach k (Aspace.create (Phys.create ()));
  k

let dispose t =
  Store.dispose t.store;
  Option.iter Phys.dispose t.phys

let default_aspace t =
  match t.aspaces with
  | a :: _ -> a
  | [] -> invalid_arg "Msnap: no process attached"

let aspace = default_aspace

(* --- dirty set tracking --- *)

let dirty_set t tid =
  match Hashtbl.find_opt t.dirty tid with
  | Some d -> d
  | None ->
    let d = dset_create () in
    Hashtbl.add t.dirty tid d;
    d

let track t r ~vpn ~rel page =
  let tid = Sched.tid_int (Sched.self ()) in
  if t.strict && page.Phys.owner >= 0 && page.Phys.owner <> tid then
    raise
      (Property_violation
         (Printf.sprintf
            "region %s page %d: dirtied by thread %d while thread %d's write \
             is unpersisted"
            r.r_name rel tid page.Phys.owner));
  page.Phys.owner <- tid;
  dset_push (dirty_set t tid) ~vpn ~rel page r;
  if Trace.is_on () && r.r_flow = 0 then begin
    (* First tracked fault of this μCheckpoint: open its causality flow.
       Every later stage (PTE reset, device commit, durable epoch) links
       to this id. *)
    r.r_flow <- Trace.new_flow ();
    Trace.instant Probe.msnap_first_fault ~flow:(r.r_flow, Trace.Flow_start)
      ~args:[ ("region", Trace.S r.r_name); ("rel_page", Trace.I rel) ]
  end

(* The MemSnap write-fault handler: dirty tracking, plus the unified COW
   path for pages whose μCheckpoint is in flight (§3). Runs under the
   kernel fault lock; the faulting frame is re-resolved there because a
   concurrent fault may already have COWed or unprotected the page. *)
let on_write_fault t r (fault : Aspace.fault) =
  Sync.Mutex.with_lock t.fault_lock @@ fun () ->
  let pte = Ptloc.get fault.Aspace.f_loc in
  let page = Phys.get (kernel_phys t) (Pte.frame pte) in
  let rel = Aspace.mapping_of_fault_rel_page fault in
  if Pte.writable pte then
    (* A concurrent fault already handled this page. *)
    ()
  else if page.Phys.ckpt_in_progress then begin
    (* Redirect the writer (and every other mapping of this frame) to a
       fresh copy; the original keeps feeding the in-flight IO. *)
    let copy = Phys.copy_page (kernel_phys t) page in
    Phys.rmap_iter
      (fun loc ->
        Sched.cpu Costs.pte_update;
        let pte = Ptloc.get loc in
        Ptloc.set loc (Pte.set_frame pte copy.Phys.frame);
        Phys.rmap_add copy loc)
      page;
    Phys.rmap_clear page;
    set_frame r rel copy;
    (* Make the faulting PTE writable; other processes keep read-only
       PTEs so their first store still takes a tracking fault. *)
    Ptloc.set fault.Aspace.f_loc
      (Pte.set_writable (Ptloc.get fault.Aspace.f_loc) true);
    track t r ~vpn:fault.Aspace.f_vpn ~rel copy
  end
  else begin
    (* Plain tracking fault. A page already writable in another process's
       page table but read-only here means cross-process sharing; track it
       for this thread unless it is already in an unpersisted set. *)
    if page.Phys.owner >= 0 && page.Phys.owner <> Sched.tid_int (Sched.self ())
    then begin
      if t.strict then
        raise
          (Property_violation
             (Printf.sprintf
                "region %s page %d: concurrent unpersisted writers" r.r_name rel));
      (* Relaxed mode (MVCC databases): ride along with the existing
         owner's dirty entry. *)
      Ptloc.set fault.Aspace.f_loc
        (Pte.set_writable (Ptloc.get fault.Aspace.f_loc) true)
    end
    else begin
      Ptloc.set fault.Aspace.f_loc
        (Pte.set_writable (Ptloc.get fault.Aspace.f_loc) true);
      track t r ~vpn:fault.Aspace.f_vpn ~rel page
    end
  end

(* --- regions --- *)

let region_pager t r =
  { Aspace.page_in =
      (fun rel ->
        let p = frame r rel in
        if not (Phys.is_null p) then `Page p
        else
          let iv = Itab.find r.populating rel in
          if iv != no_page_in then `Page (Sync.await iv)
          else begin
            let iv = Sync.Ivar.create () in
            Itab.set r.populating rel iv;
            let p = Phys.alloc (kernel_phys t) in
            (* Read the block straight into the frame; the memcpy charge
               models the kernel copying from the IO buffer into the
               page, exactly as the staged read did. A failed read
               reaches every thread waiting on [iv]. *)
            (match Store.read_block_into t.store r.r_obj rel p.Phys.data with
            | hit ->
              if hit then Sched.cpu (Costs.memcpy Addr.page_size);
              set_frame r rel p;
              Sync.Ivar.fill iv (Ok p)
            | exception exn ->
              Phys.free (kernel_phys t) p;
              Sync.Ivar.fill iv (Error exn));
            Itab.remove r.populating rel;
            `Page (Sync.await iv)
          end)
  }

let map_region_into t r aspace =
  (* [reset_tracking] shoots down the attached address spaces only. *)
  if not (List.memq aspace t.aspaces) then
    invalid_arg "Msnap: address space not attached";
  let m =
    Aspace.map aspace ~name:("msnap:" ^ r.r_name) ~va:r.r_va ~len:r.r_len
      ~writable:true ~new_pages_writable:false ~pager:(region_pager t r)
      ~on_write_fault:(on_write_fault t r) ()
  in
  ignore m;
  r.r_aspaces <- r.r_aspaces @ [ aspace ]

let arena_align = 1 lsl 21 (* regions start on 2 MiB boundaries *)

let open_region t ?aspace ~name ~len () =
  if Hashtbl.mem t.regions name then
    invalid_arg (Printf.sprintf "Msnap.open_region: %s already open" name);
  let aspace = match aspace with Some a -> a | None -> default_aspace t in
  Sched.cpu Costs.syscall;
  let obj, va, len =
    match Store.open_obj t.store ~name with
    | Some obj ->
      (* Recover: same fixed address, at least the persisted size. *)
      let va = Store.meta obj in
      (obj, va, max len (Store.size_bytes obj))
    | None ->
      let va = Msnap_util.Bits.round_up t.arena_cursor arena_align in
      let obj = Store.create t.store ~name ~meta:va () in
      Store.grow t.store obj ~size_bytes:len;
      (obj, va, len)
  in
  let end_va = Msnap_util.Bits.round_up (va + len) arena_align in
  if end_va > t.arena_cursor then t.arena_cursor <- end_va;
  let r_len = Addr.page_align_up len in
  let npages = r_len / Addr.page_size in
  let r =
    { r_name = name; r_va = va; r_len; r_obj = obj; r_kernel = t;
      frames = Array.make ((npages + leaf_mask) lsr leaf_bits) empty_leaf;
      populating = Itab.create ~initial:8 ~absent:no_page_in ();
      r_aspaces = []; tickets = Hashtbl.create 8; r_taken = []; r_flow = 0 }
  in
  Hashtbl.replace t.regions name r;
  map_region_into t r aspace;
  r

let map_into t r aspace = map_region_into t r aspace

let addr r = r.r_va
let length r = r.r_len
let name r = r.r_name
let durable_epoch r = Store.epoch r.r_obj

(* The first address space mapping [r], once [off, off + len) is checked
   against the region; [fn] names the caller in the error. *)
let mapped_aspace r ~off ~len fn =
  if off < 0 || off + len > r.r_len then invalid_arg (fn ^ ": out of range");
  match r.r_aspaces with
  | a :: _ -> a
  | [] -> invalid_arg (fn ^ ": region not mapped")

let write t r ~off data =
  ignore t;
  let a = mapped_aspace r ~off ~len:(Bytes.length data) "Msnap.write" in
  Aspace.write a ~va:(r.r_va + off) data

(* Zero-copy: the string's bytes feed Aspace's per-page copy directly —
   no intermediate [Bytes.of_string]; Aspace only reads them. *)
let write_string t r ~off s =
  ignore t;
  let a = mapped_aspace r ~off ~len:(String.length s) "Msnap.write_string" in
  Aspace.write a ~va:(r.r_va + off) (Bytes.unsafe_of_string s)

let read t r ~off ~len =
  ignore t;
  Aspace.read (mapped_aspace r ~off ~len "Msnap.read") ~va:(r.r_va + off) ~len

(* Same charges as [read], into a caller-owned buffer. *)
let read_into t r ~off buf ~pos ~len =
  ignore t;
  let a = mapped_aspace r ~off ~len "Msnap.read_into" in
  Aspace.read_into a ~va:(r.r_va + off) buf ~pos ~len

(* --- persist --- *)

(* The one grouping of a persist: the taken arena's regions, told apart by
   identity, in order of first appearance (the commit order), each with
   its slots highest first (the page order [Store.commit_async] places
   blocks in). Nothing here charges time, so no other thread sees the
   [r_taken] scratch half-built. *)
let group_taken taken =
  let firsts = ref [] in
  for i = 0 to taken.d_len - 1 do
    let r = taken.d_reg.(i) in
    if r.r_taken = [] then firsts := r :: !firsts;
    r.r_taken <- i :: r.r_taken
  done;
  List.rev_map
    (fun r ->
      let idxs = r.r_taken in
      r.r_taken <- [];
      (r, idxs))
    !firsts

(* Reset tracking for the taken entries: flag pages in-progress and flip
   every PTE mapping them back to read-only, straight from the recorded
   locations (trace buffer), in slot order (each flip charges time, a
   scheduling point), then one shootdown round. *)
let reset_tracking t taken groups =
  for i = 0 to taken.d_len - 1 do
    let page = taken.d_page.(i) in
    page.Phys.ckpt_in_progress <- true;
    page.Phys.owner <- -1;
    Phys.rmap_iter
      (fun loc ->
        Sched.cpu Costs.pte_update;
        Ptloc.set loc (Pte.set_writable (Ptloc.get loc) false))
      page
  done;
  if Trace.is_on () then
    List.iter
      (fun (r, idxs) ->
        if r.r_flow <> 0 then
          Trace.instant Probe.msnap_pte_reset ~flow:(r.r_flow, Trace.Flow_step)
            ~args:
              [ ("region", Trace.S r.r_name); ("pages", Trace.I (List.length idxs)) ])
      groups;
  (* One shootdown round covers all CPUs: the first attached address space
     that maps a taken page pays for it, every other one invalidates its
     own TLB. Address spaces are told apart by identity, not name. *)
  let charged = ref false in
  List.iter
    (fun a ->
      let vpns =
        List.concat_map
          (fun (r, idxs) ->
            if List.memq a r.r_aspaces then List.map (Array.get taken.d_vpn) idxs
            else [])
          groups
      in
      if vpns <> [] then
        if !charged then List.iter (Tlb.invalidate_page (Aspace.tlb a)) vpns
        else begin
          charged := true;
          Aspace.shootdown a vpns
        end)
    t.aspaces

(* Completion: once the μCheckpoint is durable, clear the in-progress
   flags and free frames that a concurrent COW orphaned. [idxs] selects
   one commit's slots of the taken arena. *)
let complete_entries t taken idxs =
  let phys = kernel_phys t in
  List.iter
    (fun i ->
      let page = taken.d_page.(i) in
      page.Phys.ckpt_in_progress <- false;
      if Phys.rmap_is_empty page then begin
        let live = frame taken.d_reg.(i) taken.d_rel.(i) in
        if not (live == page) (* still the live frame? *) then
          Phys.free phys page
      end)
    idxs

(* Move every in-scope slot of the per-thread dirty sets into a pooled
   "taken" arena, keeping the rest. The taken arena's slot order equals
   the old [entry list] order — per thread newest-first, threads in the
   dirty-table fold order — because that order flows into commit
   grouping, a simulated value. Steady-state this allocates nothing:
   the arena comes from [t.spare] and goes back once durable. *)
let take_entries t ~scope ~region =
  let taken =
    match !(t.spare) with
    | d :: rest ->
      t.spare := rest;
      d
    | [] -> dset_create ()
  in
  let take_tid tid =
    match Hashtbl.find_opt t.dirty tid with
    | None -> ()
    | Some d ->
      (* Downward scan: the list head was the newest entry. *)
      for i = d.d_len - 1 downto 0 do
        let in_scope =
          match region with None -> true | Some r -> d.d_reg.(i) == r
        in
        if in_scope then
          dset_push taken ~vpn:d.d_vpn.(i) ~rel:d.d_rel.(i) d.d_page.(i)
            d.d_reg.(i)
      done;
      (* Compact the kept slots in place, preserving their order. *)
      let j = ref 0 in
      for i = 0 to d.d_len - 1 do
        let in_scope =
          match region with None -> true | Some r -> d.d_reg.(i) == r
        in
        if not in_scope then begin
          if !j < i then begin
            d.d_vpn.(!j) <- d.d_vpn.(i);
            d.d_rel.(!j) <- d.d_rel.(i);
            d.d_page.(!j) <- d.d_page.(i);
            d.d_reg.(!j) <- d.d_reg.(i)
          end;
          incr j
        end
      done;
      d.d_len <- !j
  in
  (match scope with
  | `Thread -> take_tid (Sched.tid_int (Sched.self ()))
  | `Global ->
    (* Fold over tids first: mutating values mid-fold is fine for the
       stdlib Hashtbl, but the tid order itself must stay exactly the
       old fold order. *)
    let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.dirty [] in
    List.iter take_tid tids);
  taken

let release_taken t taken =
  taken.d_len <- 0;
  t.spare := taken :: !(t.spare)

let persist t ?region ?(mode = `Sync) ?(scope = `Thread) () =
  Sched.with_bucket Probe.Bucket.memsnap (fun () ->
      Sched.cpu Costs.syscall;
      Metrics.incr Probe.msnap_persist;
      let t0 = Metrics.timed_begin () in
      let taken = take_entries t ~scope ~region in
      let groups = group_taken taken in
      if Trace.is_on () then
        List.iter
          (fun (r, _) ->
            if r.r_flow <> 0 then
              Trace.instant Probe.msnap_take_dirty
                ~flow:(r.r_flow, Trace.Flow_step)
                ~args:[ ("region", Trace.S r.r_name) ])
          groups;
      reset_tracking t taken groups;
      Metrics.timed_end Probe.msnap_persist_reset t0;
      (* Commit each region's group as one μCheckpoint. *)
      let t1 = Metrics.timed_begin () in
      let commits =
        List.map
          (fun (r, idxs) ->
            let pages =
              List.map
                (fun i -> (taken.d_rel.(i), taken.d_page.(i).Phys.data))
                idxs
            in
            (* Consume the region's pending flow: faults arriving from
               here on belong to the next μCheckpoint. *)
            let flow = r.r_flow in
            r.r_flow <- 0;
            let ep, ticket = Store.commit_async ~flow t.store r.r_obj pages in
            Hashtbl.replace r.tickets ep ticket;
            (r, ep, ticket, idxs, flow))
          groups
      in
      Metrics.timed_end Probe.msnap_persist_initiate t1;
      let result_epoch =
        match region with
        | Some r -> (
          match List.find_opt (fun (r', _, _, _, _) -> r' == r) commits with
          | Some (_, ep, _, _, _) -> ep
          | None -> durable_epoch r)
        | None ->
          List.fold_left (fun acc (_, ep, _, _, _) -> max acc ep) 0 commits
      in
      let finish () =
        List.iter
          (fun (r, ep, ticket, idxs, flow) ->
            (match Sync.await ticket with
            | () -> Hashtbl.remove r.tickets ep
            | exception exn ->
              (* Keep the ticket so msnap_wait observes the failure.
                 The taken arena is not recycled: later commits still
                 reference it. *)
              complete_entries t taken idxs;
              raise exn);
            complete_entries t taken idxs;
            if Trace.is_on () && flow <> 0 then
              Trace.instant Probe.msnap_durable ~flow:(flow, Trace.Flow_end)
                ~args:[ ("region", Trace.S r.r_name); ("epoch", Trace.I ep) ])
          commits;
        release_taken t taken
      in
      (match mode with
      | `Sync ->
        let t2 = Metrics.timed_begin () in
        finish ();
        Metrics.timed_end Probe.msnap_persist_wait t2
      | `Async ->
        if commits = [] then release_taken t taken
        else
          ignore
            (Sched.spawn ~name:"msnap-complete" (fun () ->
                 try finish () with _ -> ())));
      Metrics.timed_end Probe.msnap_persist_total t0;
      result_epoch)

let wait t r epoch =
  ignore t;
  Sched.cpu Costs.syscall;
  Metrics.incr Probe.msnap_wait;
  let rec loop () =
    if durable_epoch r < epoch then begin
      (* Find the smallest in-flight epoch that covers the request. *)
      let best =
        Hashtbl.fold
          (fun ep ticket acc ->
            if ep >= epoch then
              match acc with
              | Some (ep', _) when ep' <= ep -> acc
              | _ -> Some (ep, ticket)
            else acc)
          r.tickets None
      in
      match best with
      | Some (_, ticket) ->
        Sync.await ticket;
        loop ()
      | None ->
        invalid_arg
          (Printf.sprintf "Msnap.wait: epoch %d of region %s was never issued"
             epoch r.r_name)
    end
  in
  loop ()

(* --- introspection --- *)

let dirty_count t =
  match Hashtbl.find_opt t.dirty (Sched.tid_int (Sched.self ())) with
  | Some d -> d.d_len
  | None -> 0

let dirty_count_of_region t r =
  Hashtbl.fold
    (fun _ d acc ->
      let n = ref 0 in
      for i = 0 to d.d_len - 1 do
        if d.d_reg.(i) == r then incr n
      done;
      acc + !n)
    t.dirty 0

let region_by_name t name = Hashtbl.find_opt t.regions name
