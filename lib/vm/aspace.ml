module Costs = Msnap_sim.Costs
module Sched = Msnap_sim.Sched
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe

type frame_source =
  [ `Zero
  | `Page of Phys.page ]

type pager = { page_in : int -> frame_source }

type mapping = {
  m_name : string;
  start_vpn : int;
  npages : int;
  m_writable : bool;
  new_pages_writable : bool;
  pager : pager option;
  on_write_fault : (fault -> unit) option;
}

and fault = {
  f_aspace : t;
  f_mapping : mapping;
  f_vpn : int;
  f_loc : Ptloc.t;
  f_page : Phys.page;
}

and t = {
  a_name : string;
  a_phys : Phys.t;
  pt : Ptable.t;
  a_tlb : Ptloc.t Tlb.t; (* payload: PTE location, or Ptloc.null *)
  (* Sorted by [start_vpn] so the per-access lookup is a binary search
     (plus a one-entry last-hit cache) instead of a linear list scan.
     Mutated only by [map]/[unmap], which are rare. *)
  mutable mappings : mapping array;
  mutable last_hit : mapping option;
}

let create ?(name = "aspace") phys =
  { a_name = name; a_phys = phys; pt = Ptable.create ();
    a_tlb = Tlb.create ~absent:Ptloc.null ();
    mappings = [||]; last_hit = None }

let name t = t.a_name
let phys t = t.a_phys
let page_table t = t.pt
let tlb t = t.a_tlb

let overlaps m ~start_vpn ~npages =
  start_vpn < m.start_vpn + m.npages && m.start_vpn < start_vpn + npages

let map t ~name ~va ~len ?(writable = true) ?(new_pages_writable = true) ?pager
    ?on_write_fault () =
  if va mod Addr.page_size <> 0 then invalid_arg "Aspace.map: unaligned va";
  if len <= 0 then invalid_arg "Aspace.map: empty mapping";
  let start_vpn = Addr.vpn_of_va va in
  let npages = Addr.pages_spanned ~off:va ~len in
  Array.iter
    (fun m ->
      if overlaps m ~start_vpn ~npages then
        invalid_arg
          (Printf.sprintf "Aspace.map: %s overlaps existing mapping %s" name
             m.m_name))
    t.mappings;
  let m =
    { m_name = name; start_vpn; npages; m_writable = writable;
      new_pages_writable; pager; on_write_fault }
  in
  let ms = Array.append t.mappings [| m |] in
  Array.sort (fun a b -> compare a.start_vpn b.start_vpn) ms;
  t.mappings <- ms;
  m

let mapping_of_fault_rel_page f = f.f_vpn - f.f_mapping.start_vpn

let find_mapping t ~name =
  Array.find_opt (fun m -> m.m_name = name) t.mappings

let segfault t vpn =
  invalid_arg
    (Printf.sprintf "%s: segfault at va 0x%x (no mapping)" t.a_name
       (Addr.va_of_vpn vpn))

let mapping_of_vpn t vpn =
  match t.last_hit with
  | Some m when vpn >= m.start_vpn && vpn - m.start_vpn < m.npages -> m
  | _ ->
    (* Binary search for the mapping with the greatest start_vpn <= vpn. *)
    let ms = t.mappings in
    let lo = ref 0 and hi = ref (Array.length ms - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let m = ms.(mid) in
      if m.start_vpn <= vpn then begin
        found := Some m;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    (match !found with
    | Some m when vpn - m.start_vpn < m.npages ->
      t.last_hit <- Some m;
      m
    | _ -> segfault t vpn)

(* Install a frame for [vpn] of mapping [m] using its pager. Charges the
   page-in fault. Returns the PTE location. *)
let page_in t m vpn =
  let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
  Sched.cpu Costs.fault_entry;
  let source =
    match m.pager with
    | None -> `Zero
    | Some p -> p.page_in (vpn - m.start_vpn)
  in
  let page =
    match source with
    | `Zero -> Phys.alloc t.a_phys
    | `Page p -> p
  in
  let loc = Ptable.walk t.pt vpn in
  Ptloc.set loc (Pte.make ~frame:page.Phys.frame ~writable:m.new_pages_writable);
  Phys.rmap_add page loc;
  if Trace.is_on () then
    Trace.complete Probe.vm_page_in ~dur:(Sched.now () - trace_t0)
      ~args:
        [ ("mapping", Trace.S m.m_name);
          ("rel_page", Trace.I (vpn - m.start_vpn)) ];
  loc

(* Translate [vpn], returning the PTE location. The simulated TLB alone
   decides the pt_walk charge: hit → nothing, miss → charge and install
   the entry immediately, as hardware does during the walk — BEFORE any
   page-in, because a page-in can trigger writeback protection resets
   that shoot the fresh entry down again, and later accesses must see
   that. The payload is a host-only cache of the PTE location — valid
   whenever a hit carries one, since leaves are never freed and every
   PTE-invalidation path also invalidates the TLB — letting a hit with a
   present PTE skip the host-side radix walk. *)
let translate t vpn =
  let cached =
    if Tlb.probe t.a_tlb vpn then Tlb.hit_payload t.a_tlb
    else begin
      (* Install the entry before charging the walk, exactly as the
         hardware walker fills the TLB: the charge is a scheduling
         point, and concurrent threads sharing this aspace must see the
         entry (a page-in triggered by this access can likewise shoot
         it down again before we resume). *)
      Tlb.insert t.a_tlb vpn Ptloc.null;
      if Trace.verbose () then Trace.instant Probe.vm_pt_walk;
      Sched.cpu Costs.pt_walk;
      Ptloc.null
    end
  in
  if (not (Ptloc.is_null cached)) && Pte.present (Ptloc.get cached) then cached
  else
    match Ptable.find_loc t.pt vpn with
    | Some loc when Pte.present (Ptloc.get loc) ->
      Tlb.update t.a_tlb vpn loc;
      loc
    | _ -> Ptloc.null

(* Page the vpn in and cache the fresh PTE location. The slow half of
   [translate], split out so the fast path allocates no closure. *)
let translate_miss t m vpn =
  let loc = page_in t m vpn in
  Tlb.update t.a_tlb vpn loc;
  loc

(* Resolve [vpn] for writing: page-in if absent, then run the write-fault
   path until the PTE is writable. Returns the PTE location; the page is
   one [Phys.get] away, so the hot path builds no pair. *)
let resolve_write_loc t vpn =
  let m = mapping_of_vpn t vpn in
  if not m.m_writable then
    invalid_arg
      (Printf.sprintf "%s: write to read-only mapping %s" t.a_name m.m_name);
  let loc = translate t vpn in
  let loc = if Ptloc.is_null loc then translate_miss t m vpn else loc in
  if Pte.writable (Ptloc.get loc) then loc
  else begin
    (* Minor write fault. *)
    let dispatch () =
      Sched.cpu Costs.fault_entry;
      let page = Phys.get t.a_phys (Pte.frame (Ptloc.get loc)) in
      (match m.on_write_fault with
      | Some handler ->
        handler { f_aspace = t; f_mapping = m; f_vpn = vpn; f_loc = loc;
                  f_page = page }
      | None -> Ptloc.set loc (Pte.set_writable (Ptloc.get loc) true));
      if not (Pte.writable (Ptloc.get loc)) then
        failwith
          (Printf.sprintf "%s: write fault handler left page RO (va 0x%x)"
             t.a_name (Addr.va_of_vpn vpn))
    in
    Sched.with_bucket Probe.Bucket.page_faults (fun () ->
        if not (Trace.is_on ()) then dispatch ()
        else
          Trace.with_span Probe.vm_write_fault
            ~args:[ ("mapping", Trace.S m.m_name); ("vpn", Trace.I vpn) ]
            dispatch);
    loc
  end

let resolve_read t vpn =
  let m = mapping_of_vpn t vpn in
  let loc = translate t vpn in
  let loc =
    if not (Ptloc.is_null loc) then loc
    else
      Sched.with_bucket Probe.Bucket.page_faults (fun () ->
          if not (Trace.is_on ()) then translate_miss t m vpn
          else
            Trace.with_span Probe.vm_read_fault
              ~args:[ ("mapping", Trace.S m.m_name); ("vpn", Trace.I vpn) ]
              (fun () -> translate_miss t m vpn))
  in
  Phys.get t.a_phys (Pte.frame (Ptloc.get loc))

let page_for_read t ~va = resolve_read t (Addr.vpn_of_va va)

(* The copy loops are top-level recursive functions, not local
   closures: Aspace.read/write run once per storage access on the mmap
   paths, and a per-call closure is exactly the kind of hot-path
   allocation this module avoids. *)
let rec write_loop t data va pos len =
  if len > 0 then begin
    let in_page = Addr.page_size - Addr.page_offset va in
    let n = min len in_page in
    (* Charge the copy before resolving: the store must land on the
       frame the translation produced, with no scheduling point in
       between — otherwise a concurrent μCheckpoint could COW the page
       away mid-copy and the bytes would hit an orphaned frame. *)
    Sched.cpu (Costs.memcpy n);
    let loc = resolve_write_loc t (Addr.vpn_of_va va) in
    let page = Phys.get t.a_phys (Pte.frame (Ptloc.get loc)) in
    Bytes.blit data pos page.Phys.data (Addr.page_offset va) n;
    write_loop t data (va + n) (pos + n) (len - n)
  end

let write t ~va data = write_loop t data va 0 (Bytes.length data)

let rec read_into_loop t buf va pos len =
  if len > 0 then begin
    let in_page = Addr.page_size - Addr.page_offset va in
    let n = min len in_page in
    Sched.cpu (Costs.memcpy n);
    let page = resolve_read t (Addr.vpn_of_va va) in
    Bytes.blit page.Phys.data (Addr.page_offset va) buf pos n;
    read_into_loop t buf (va + n) (pos + n) (len - n)
  end

let read_into t ~va buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Aspace.read_into: bad slice";
  read_into_loop t buf va pos len

let read t ~va ~len =
  let buf = Bytes.create len in
  read_into t ~va buf ~pos:0 ~len;
  buf

let protect_page t ~vpn =
  match Ptable.find_loc t.pt vpn with
  | None -> ()
  | Some loc ->
    let pte = Ptloc.get loc in
    if Pte.present pte then Ptloc.set loc (Pte.set_writable pte false)

let shootdown t vpns =
  (* Count once; both the trace arg and the cost model need the length. *)
  let n = List.length vpns in
  if Trace.is_on () then
    Trace.instant Probe.vm_shootdown ~argi:("pages", n);
  Tlb.shootdown ~n t.a_tlb vpns

let unmap t m =
  ignore
    (Ptable.iter_leaves t.pt ~vpn:m.start_vpn ~n:m.npages
       ~f:(fun slots base s0 s1 ->
         for s = s0 to s1 do
           let pte = slots.(s) in
           if Pte.present pte then begin
             let page = Phys.get t.a_phys (Pte.frame pte) in
             Phys.rmap_remove page (Ptloc.make slots s);
             slots.(s) <- Pte.empty;
             Tlb.invalidate_page t.a_tlb (base + s);
             if Phys.rmap_is_empty page then Phys.free t.a_phys page
           end
         done));
  (* Drop [m] with a single counted copy — no list round-trip. *)
  let ms = t.mappings in
  let kept = ref 0 in
  Array.iter (fun m' -> if m' != m then incr kept) ms;
  if !kept < Array.length ms then begin
    let out = Array.make !kept m in
    let j = ref 0 in
    Array.iter
      (fun m' ->
        if m' != m then begin
          out.(!j) <- m';
          incr j
        end)
      ms;
    t.mappings <- out
  end;
  t.last_hit <- None
