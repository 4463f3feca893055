module Sched = Msnap_sim.Sched
module Addr = Msnap_vm.Addr
module Pte = Msnap_vm.Pte
module Ptloc = Msnap_vm.Ptloc
module Ptable = Msnap_vm.Ptable
module Phys = Msnap_vm.Phys
module Tlb = Msnap_vm.Tlb
module Aspace = Msnap_vm.Aspace
module Protect = Msnap_vm.Protect
module Size = Msnap_util.Size

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let in_sim f () = Sched.run f

(* --- Addr --- *)

let test_addr_arith () =
  checki "vpn" 2 (Addr.vpn_of_va 8192);
  checki "va" 8192 (Addr.va_of_vpn 2);
  checki "offset" 123 (Addr.page_offset (8192 + 123));
  checki "align down" 8192 (Addr.page_align_down (8192 + 123));
  checki "align up" 12288 (Addr.page_align_up (8192 + 123));
  checki "align up exact" 8192 (Addr.page_align_up 8192);
  checki "one page" 1 (Addr.pages_spanned ~off:0 ~len:4096);
  checki "straddle" 2 (Addr.pages_spanned ~off:4000 ~len:200);
  checki "empty" 0 (Addr.pages_spanned ~off:0 ~len:0)

let test_addr_index () =
  let vpn = (3 lsl 27) lor (5 lsl 18) lor (7 lsl 9) lor 11 in
  checki "l3" 3 (Addr.index ~level:3 vpn);
  checki "l2" 5 (Addr.index ~level:2 vpn);
  checki "l1" 7 (Addr.index ~level:1 vpn);
  checki "l0" 11 (Addr.index ~level:0 vpn)

(* --- Pte --- *)

let test_pte_bits () =
  let pte = Pte.make ~frame:42 ~writable:false in
  checkb "present" true (Pte.present pte);
  checkb "ro" false (Pte.writable pte);
  checki "frame" 42 (Pte.frame pte);
  let pte = Pte.set_writable pte true in
  checkb "now writable" true (Pte.writable pte);
  checki "frame preserved" 42 (Pte.frame pte);
  let pte = Pte.set_cow pte true in
  checkb "cow" true (Pte.cow pte);
  let pte = Pte.set_frame pte 99 in
  checki "new frame" 99 (Pte.frame pte);
  checkb "flags preserved" true (Pte.cow pte && Pte.writable pte);
  checkb "empty not present" false (Pte.present Pte.empty)

(* Reference model of the whole-leaf kernels: plain loops over Pte's
   accessors. Each returns the present count, and shadow also the dirty
   slots in ascending order. *)
module Leaf_ref = struct
  let shadow slots s0 s1 =
    let present = ref 0 and dirty = ref [] in
    for s = s0 to s1 do
      let pte = slots.(s) in
      if Pte.present pte then begin
        incr present;
        if Pte.writable pte then dirty := s :: !dirty;
        slots.(s) <- Pte.set_cow (Pte.set_writable pte false) true
      end
    done;
    (!present, List.rev !dirty)

  let collapse slots s0 s1 =
    let present = ref 0 in
    for s = s0 to s1 do
      let pte = slots.(s) in
      if Pte.present pte then begin
        incr present;
        slots.(s) <- Pte.set_cow pte false
      end
    done;
    !present
end

let kernel_shadow slots s0 s1 =
  let dirty = Array.make (s1 - s0 + 1) (-1) in
  let r = Pte.shadow_leaf slots ~s0 ~s1 ~dirty in
  (Pte.leaf_present r, Array.to_list (Array.sub dirty 0 (Pte.leaf_dirty r)))

(* Random leaves against the model. Shadow works in 16-slot blocks from
   the window's first slot, compacts only a block that holds a dirty
   slot, and handles a shorter last block, so the leaves are drawn in
   five shapes:
   - random: any combination of the four flags, stray bits in the rest
     of the page offset (so slots that are not present carry bits the
     kernels must leave alone), random frames; about a quarter of the
     slots are dirty, so a clean block is rare;
   - sparse: no slot dirty but 0-3 picked from the block edges (window
     offsets 15/16 and 31/32, leaf slots 15/16 and 31/32) and the
     window's first and last slot; the other slots are random words
     with writable cleared where present;
   - all dirty, and none present.
   Windows run from one slot to the full leaf, plus windows that start
   and end mid-block. Slot words, present counts, dirty slots and their
   order must all agree, through a shadow and the collapse after it. *)
let prop_leaf_kernels_model =
  let fanout = Addr.fanout in
  let gen =
    QCheck.Gen.(
      let word =
        map2
          (fun frame low -> (frame lsl Addr.page_shift) lor low)
          (int_bound ((1 lsl 30) - 1))
          (int_bound (Addr.page_size - 1))
      in
      let clean w = if Pte.present w then Pte.set_writable w false else w in
      let dirty w = Pte.set_writable (w lor 1) true in
      let* s0, s1 =
        frequency
          [ ( 3,
              let* s0 = int_bound (fanout - 1) in
              let* len =
                frequency
                  [ (1, return 1); (1, return (fanout - s0));
                    (3, int_range 1 (fanout - s0)) ]
              in
              return (s0, s0 + len - 1) );
            ( 2,
              (* Starts and ends mid-block: s0 and the length are not
                 multiples of 16. *)
              let* s0 = map (fun (b, r) -> (16 * b) + r) (pair (int_bound 30) (int_range 1 15)) in
              let* len =
                map (fun (b, r) -> (16 * b) + r)
                  (pair (int_bound ((fanout - s0 - 15) / 16)) (int_range 1 15))
              in
              return (s0, s0 + len - 1) ) ]
      in
      let* words = array_size (return fanout) word in
      let* words =
        frequency
          [ (2, return words);
            ( 3,
              let edges =
                List.filter
                  (fun s -> s >= s0 && s <= s1)
                  [ s0; s0 + 15; s0 + 16; s0 + 31; s0 + 32; 15; 16; 31; 32; s1 ]
              in
              let* picks = list_size (int_bound 3) (oneofl edges) in
              let a = Array.map clean words in
              List.iter (fun s -> a.(s) <- dirty a.(s)) picks;
              return a );
            (1, return (Array.map dirty words));
            (1, return (Array.map (fun w -> w land lnot 1) words)) ]
      in
      return (words, s0, s1))
  in
  QCheck.Test.make ~count:1000 ~name:"shadow/collapse kernels agree with OCaml loops"
    (QCheck.make gen) (fun (words, s0, s1) ->
      let k = Array.copy words and m = Array.copy words in
      let k_sh = kernel_shadow k s0 s1 and m_sh = Leaf_ref.shadow m s0 s1 in
      let shadow_ok = k_sh = m_sh && k = m in
      let k_co = Pte.collapse_leaf k ~s0 ~s1 and m_co = Leaf_ref.collapse m s0 s1 in
      let k' = Array.copy words and m' = Array.copy words in
      let collapse_alone =
        Pte.collapse_leaf k' ~s0 ~s1 = Leaf_ref.collapse m' s0 s1 && k' = m'
      in
      shadow_ok && k_co = m_co && k = m && collapse_alone)

(* The C masks are Pte's bits: a PTE with exactly one flag set must come
   out of each kernel as the model says. *)
let test_leaf_kernel_masks () =
  let frame = 0x12345 in
  let base = Pte.set_frame Pte.empty frame in
  let single =
    [ ("none", base);
      ("present", Pte.make ~frame ~writable:false);
      ("writable", Pte.set_writable base true);
      ("cow", Pte.set_cow base true);
      ("accessed", base lor 8) ]
  in
  checkb "accessed is bit 3" true (Pte.accessed (base lor 8));
  List.iter
    (fun (name, pte) ->
      let k = [| pte |] and m = [| pte |] in
      let k_sh = kernel_shadow k 0 0 and m_sh = Leaf_ref.shadow m 0 0 in
      checkb (name ^ ": shadow result") true (k_sh = m_sh);
      checki (name ^ ": shadowed word") m.(0) k.(0);
      let k_co = Pte.collapse_leaf k ~s0:0 ~s1:0 and m_co = Leaf_ref.collapse m 0 0 in
      checki (name ^ ": collapse count") m_co k_co;
      checki (name ^ ": collapsed word") m.(0) k.(0))
    (single
    @ [ ("present+writable", Pte.make ~frame ~writable:true);
        ("present+cow", Pte.set_cow (Pte.make ~frame ~writable:false) true) ]);
  (* Present and writable: reported dirty, then read-only COW. *)
  let a = [| Pte.make ~frame ~writable:true |] in
  checkb "dirty slot listed" true (kernel_shadow a 0 0 = (1, [ 0 ]));
  checkb "shadowed read-only" false (Pte.writable a.(0));
  checkb "shadowed cow" true (Pte.cow a.(0));
  checki "frame kept" frame (Pte.frame a.(0))

let test_leaf_kernel_bounds () =
  let slots = Array.init 8 (fun i -> Pte.make ~frame:i ~writable:true) in
  let before = Array.copy slots in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let dirty = Array.make 8 0 in
  rejects "s0 < 0" (fun () -> Pte.shadow_leaf slots ~s0:(-1) ~s1:3 ~dirty);
  rejects "s1 past leaf" (fun () -> Pte.shadow_leaf slots ~s0:0 ~s1:8 ~dirty);
  rejects "s0 > s1" (fun () -> Pte.collapse_leaf slots ~s0:5 ~s1:4);
  rejects "collapse past leaf" (fun () -> Pte.collapse_leaf slots ~s0:2 ~s1:8);
  rejects "short scratch" (fun () ->
      Pte.shadow_leaf slots ~s0:0 ~s1:7 ~dirty:(Array.make 7 0));
  checkb "nothing written" true (slots = before);
  let words f =
    f ();
    let m0 = Gc.minor_words () in
    for _ = 1 to 1000 do f () done;
    Gc.minor_words () -. m0
  in
  checkb "kernels allocate nothing" true
    (words (fun () ->
         ignore (Pte.shadow_leaf slots ~s0:0 ~s1:7 ~dirty);
         ignore (Pte.collapse_leaf slots ~s0:0 ~s1:7))
    = 0.0)

(* --- Ptable --- *)

let test_ptable_walk_set_lookup () =
  let pt = Ptable.create () in
  checki "empty" Pte.empty (Ptable.lookup pt 12345);
  let pte = Pte.make ~frame:7 ~writable:true in
  Ptable.set pt 12345 pte;
  checki "set/lookup" pte (Ptable.lookup pt 12345);
  checkb "find_loc" true (Ptable.find_loc pt 12345 <> None);
  checkb "find_loc absent leaf" true (Ptable.find_loc pt 99_999_999 = None)

let test_ptable_loc_stable () =
  let pt = Ptable.create () in
  Ptable.set pt 100 (Pte.make ~frame:1 ~writable:true);
  let loc1 = Ptable.walk pt 100 in
  (* Populate neighbours; the recorded slot must stay valid. *)
  for vpn = 101 to 600 do
    Ptable.set pt vpn (Pte.make ~frame:vpn ~writable:false)
  done;
  let loc2 = Ptable.walk pt 100 in
  checkb "same slot" true (Ptloc.same loc1 loc2);
  checki "readable through old loc" 1 (Pte.frame (Ptloc.get loc1))

(* Present vpns [iter_leaves] hands over in [vpn, vpn+n), and the slot
   count it returns. *)
let present_in pt ~vpn ~n =
  let seen = ref [] in
  let visited =
    Ptable.iter_leaves pt ~vpn ~n ~f:(fun slots base s0 s1 ->
        for s = s0 to s1 do
          if Pte.present slots.(s) then seen := (base + s) :: !seen
        done)
  in
  (List.rev !seen, visited)

let test_ptable_iter_leaves_window () =
  let pt = Ptable.create () in
  List.iter (fun vpn -> Ptable.set pt vpn (Pte.make ~frame:vpn ~writable:true))
    [ 10; 20; 600; 200_000 ];
  let seen, visited = present_in pt ~vpn:0 ~n:300_000 in
  Alcotest.(check (list int)) "all present found" [ 10; 20; 600; 200_000 ] seen;
  (* Visited counts whole leaves that exist: 3 leaves x 512 slots (10 and
     20 share a leaf; 600 and 200000 in separate leaves). *)
  checki "slots inspected" (3 * 512) visited;
  (* A clipped walk only sees its window. *)
  Alcotest.(check (list int)) "clipped" [ 20; 600 ]
    (fst (present_in pt ~vpn:15 ~n:590))

(* [iter_leaves] against a per-vpn model: a vpn is visited iff its leaf
   exists ([find_loc]) and its PTE is seen present iff [lookup] says so. Table entries and window ends cluster around the
   512 (leaf) and 262,144 (level-2 node) boundaries, so windows start
   and end mid-leaf and cross node edges. Some entries are written
   non-present: their leaf exists but the walk must not report them. *)
let prop_ptable_scans_model =
  let near_boundary =
    QCheck.Gen.(
      map3
        (fun unit k off -> max 0 ((k * unit) + off))
        (oneofl [ 512; 262_144 ])
        (int_range 0 3) (int_range (-700) 700))
  in
  let window =
    QCheck.Gen.(
      pair near_boundary
        (frequency
           [ (1, return 0); (4, int_range 1 1_500);
             (1, int_range 1_500 600_000) ]))
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40) (pair near_boundary bool))
        (list_size (int_range 1 4) window))
  in
  QCheck.Test.make ~count:150 ~name:"iter_leaves agrees with per-vpn model"
    (QCheck.make gen) (fun (entries, windows) ->
      let pt = Ptable.create () in
      List.iter
        (fun (vpn, present) ->
          Ptable.set pt vpn
            (if present then Pte.make ~frame:(vpn + 1) ~writable:true
             else Pte.empty))
        entries;
      List.for_all
        (fun (vpn, n) ->
          let m_visited = ref 0 and m_present = ref [] in
          for v = vpn to vpn + n - 1 do
            if Ptable.find_loc pt v <> None then incr m_visited;
            if Pte.present (Ptable.lookup pt v) then m_present := v :: !m_present
          done;
          let m_present = List.rev !m_present in
          let l_present = ref [] and l_sum = ref 0 and last_base = ref (-1) in
          let l_visited =
            Ptable.iter_leaves pt ~vpn ~n ~f:(fun slots base s0 s1 ->
                assert (base mod Addr.fanout = 0 && base > !last_base);
                assert (0 <= s0 && s0 <= s1 && s1 < Addr.fanout);
                assert (base + s0 >= vpn && base + s1 < vpn + n);
                last_base := base;
                l_sum := !l_sum + (s1 - s0 + 1);
                for s = s0 to s1 do
                  if Pte.present slots.(s) then l_present := (base + s) :: !l_present
                done)
          in
          l_visited = !m_visited && !l_sum = l_visited
          && List.rev !l_present = m_present)
        windows)

let prop_ptable_model =
  QCheck.Test.make ~count:100 ~name:"page table agrees with assoc model"
    QCheck.(list_of_size Gen.(int_range 1 50)
              (pair (int_bound 1_000_000) (int_range 1 10_000)))
    (fun ops ->
      let pt = Ptable.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (vpn, frame) ->
          Ptable.set pt vpn (Pte.make ~frame ~writable:true);
          Hashtbl.replace model vpn frame)
        ops;
      Hashtbl.fold
        (fun vpn frame ok -> ok && Pte.frame (Ptable.lookup pt vpn) = frame)
        model true)

(* --- Phys --- *)

let test_phys_alloc_free () =
  in_sim (fun () ->
      let phys = Phys.create () in
      let p1 = Phys.alloc phys in
      let p2 = Phys.alloc phys in
      checkb "distinct frames" true (p1.Phys.frame <> p2.Phys.frame);
      checki "live" 2 (Phys.live_frames phys);
      Phys.free phys p1;
      checki "after free" 1 (Phys.live_frames phys);
      let p3 = Phys.alloc phys in
      checki "frame reused" p1.Phys.frame p3.Phys.frame;
      checkb "reused frame zeroed" true (Bytes.for_all (fun c -> c = '\000') p3.Phys.data);
      checki "peak" 2 (Phys.peak_frames phys))
    ()

let test_phys_copy () =
  in_sim (fun () ->
      let phys = Phys.create () in
      let src = Phys.alloc phys in
      Bytes.fill src.Phys.data 0 4096 'S';
      let dst = Phys.copy_page phys src in
      checkb "copied" true (Bytes.equal src.Phys.data dst.Phys.data);
      Bytes.set src.Phys.data 0 'X';
      checkb "independent" true (Bytes.get dst.Phys.data 0 = 'S'))
    ()

let test_phys_rmap () =
  in_sim (fun () ->
      let phys = Phys.create () in
      let p = Phys.alloc phys in
      let slots = Array.make 512 0 in
      let l1 = Ptloc.make slots 1 and l2 = Ptloc.make slots 2 in
      Phys.rmap_add p l1;
      Phys.rmap_add p l2;
      checki "two mappings" 2 (Phys.rmap_length p);
      Phys.rmap_remove p l1;
      checki "one left" 1 (Phys.rmap_length p);
      checkb "right one" true (Ptloc.same (Phys.rmap_get p 0) l2))
    ()

(* --- Tlb --- *)

(* Probe, and insert [payload] on a miss as the access path does; true
   on a hit. *)
let touch tlb vpn payload =
  Tlb.probe tlb vpn || (Tlb.insert tlb vpn payload; false)

let test_tlb_hit_miss () =
  in_sim (fun () ->
      let tlb = Tlb.create ~entries:4 ~absent:() () in
      checkb "first access misses" false (touch tlb 1 ());
      checkb "second hits" true (touch tlb 1 ());
      Tlb.invalidate_page tlb 1;
      checkb "after invalidate" false (touch tlb 1 ());
      checki "misses" 2 (Tlb.misses tlb);
      checki "hits" 1 (Tlb.hits tlb))
    ()

let test_tlb_eviction () =
  in_sim (fun () ->
      let tlb = Tlb.create ~entries:2 ~absent:() () in
      ignore (touch tlb 1 ());
      ignore (touch tlb 2 ());
      ignore (touch tlb 3 ()); (* evicts 1 (FIFO) *)
      checkb "1 evicted" false (touch tlb 1 ()))
    ()

let test_tlb_shootdown_cost () =
  in_sim (fun () ->
      let tlb = Tlb.create ~absent:() () in
      ignore (touch tlb 5 ());
      let t0 = Sched.now () in
      Tlb.shootdown tlb [ 5 ];
      checkb "selective cost charged" true (Sched.now () - t0 > 0);
      checkb "invalidated" false (touch tlb 5 ());
      (* Above the threshold: full flush. *)
      let many = List.init 200 Fun.id in
      List.iter (fun v -> ignore (touch tlb v ())) many;
      Tlb.shootdown tlb many;
      checkb "flushed" false (touch tlb 100 ()))
    ()

(* Reference TLB: the previous Hashtbl + Queue implementation, re-stated
   as a model. Hit/miss counts, eviction decisions and the FIFO's stale
   entries (invalidate removes only from the table; a re-inserted page
   duplicates its ring slot) are simulated values, so the flat
   Itab + Iring version must agree on every operation. *)
module Tlb_ref = struct
  type 'a t = {
    tab : (int, 'a) Hashtbl.t;
    fifo : int Queue.t;
    capacity : int;
    absent : 'a;
    mutable last : 'a;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~entries ~absent () =
    { tab = Hashtbl.create entries; fifo = Queue.create ();
      capacity = entries; absent; last = absent; hits = 0; misses = 0 }

  let probe t vpn =
    match Hashtbl.find_opt t.tab vpn with
    | Some p ->
      t.hits <- t.hits + 1;
      t.last <- p;
      true
    | None ->
      t.misses <- t.misses + 1;
      t.last <- t.absent;
      false

  let hit_payload t = t.last

  let insert t vpn payload =
    if not (Hashtbl.mem t.tab vpn) then begin
      if Hashtbl.length t.tab >= t.capacity && not (Queue.is_empty t.fifo)
      then Hashtbl.remove t.tab (Queue.pop t.fifo);
      Queue.push vpn t.fifo
    end;
    Hashtbl.replace t.tab vpn payload

  let update t vpn payload =
    if Hashtbl.mem t.tab vpn then Hashtbl.replace t.tab vpn payload

  let invalidate_page t vpn = Hashtbl.remove t.tab vpn

  let flush t =
    Hashtbl.reset t.tab;
    Queue.clear t.fifo
end

let prop_tlb_model =
  (* Differential: random op sequences over a small TLB (capacity 1 to
     24 over twice as many pages, so evictions and stale-FIFO
     interactions are constant). Flushes (1% to 15% of ops, per case)
     interleave with stale ring entries, duplicates and capacity
     evictions, and the ring at a flush is sometimes shorter and
     sometimes longer than the table. After every op the hit/miss
     counters must agree; after a flush every page must miss in both; at
     the end every page must probe identically with the same payload. *)
  QCheck.Test.make ~count:600 ~name:"flat tlb agrees with Hashtbl+Queue model"
    QCheck.(triple (int_range 1 24) (int_range 1 15)
              (list_of_size Gen.(int_range 1 300)
                 (pair (int_bound 99) (pair (int_bound 1023) (int_bound 999)))))
    (fun (entries, flush_pct, ops) ->
      let pages = (2 * entries) + 4 in
      let tlb = Tlb.create ~entries ~absent:(-1) () in
      let m = Tlb_ref.create ~entries ~absent:(-1) () in
      let all_miss () =
        List.for_all
          (fun vpn -> (not (Tlb.probe tlb vpn)) && not (Tlb_ref.probe m vpn))
          (List.init pages Fun.id)
      in
      List.for_all
        (fun (kind, (vpn, payload)) ->
          let vpn = vpn mod pages in
          let kind = if kind < flush_pct then 17 else kind mod 17 in
          let step_ok =
            match kind with
            | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 ->
              (* kinds 8-12 insert the [absent] payload *)
              let payload = if kind < 8 then payload else -1 in
              let h = Tlb.probe tlb vpn and h' = Tlb_ref.probe m vpn in
              if not h then Tlb.insert tlb vpn payload;
              if not h' then Tlb_ref.insert m vpn payload;
              h = h' && Tlb.hit_payload tlb = Tlb_ref.hit_payload m
            | 13 | 14 ->
              Tlb.invalidate_page tlb vpn;
              Tlb_ref.invalidate_page m vpn;
              true
            | 15 | 16 ->
              Tlb.update tlb vpn payload;
              Tlb_ref.update m vpn payload;
              true
            | _ ->
              Tlb.flush tlb;
              Tlb_ref.flush m;
              all_miss ()
          in
          step_ok && Tlb.hits tlb = m.Tlb_ref.hits
          && Tlb.misses tlb = m.Tlb_ref.misses)
        ops
      && List.for_all
           (fun vpn ->
             Tlb.probe tlb vpn = Tlb_ref.probe m vpn
             && Tlb.hit_payload tlb = Tlb_ref.hit_payload m)
           (List.init pages Fun.id))

(* A flush empties the TLB by popping its FIFO ring, stale entries,
   duplicates and capacity evictions included, and FIFO
   eviction after it starts from the first page inserted after it. *)
let test_tlb_flush () =
  let tlb = Tlb.create ~entries:16 ~absent:() () in
  let fill vpns = List.iter (fun v -> ignore (touch tlb v ())) vpns in
  (* Short ring: 3 live pages, a stale entry for 2 and a duplicate of 1. *)
  fill [ 1; 2; 3 ];
  Tlb.invalidate_page tlb 2;
  Tlb.invalidate_page tlb 1;
  fill [ 1 ];
  Tlb.flush tlb;
  List.iter (fun v -> checkb "short ring flushed" false (Tlb.probe tlb v)) [ 1; 2; 3 ];
  (* Probes insert nothing. Refill to capacity and one more: the first
     page of the refill is the FIFO victim, so no ring entry (stale or
     duplicate) outlived the flush. *)
  let refill_evicts_oldest base =
    fill (List.init 17 (fun i -> base + i));
    checkb "oldest evicted first" false (Tlb.probe tlb base);
    checkb "next one kept" true (Tlb.probe tlb (base + 1))
  in
  refill_evicts_oldest 100;
  (* More pages than the table holds, so evictions too. *)
  fill (List.init 40 Fun.id);
  Tlb.flush tlb;
  List.iter (fun v -> checkb "long ring flushed" false (Tlb.probe tlb v))
    (List.init 40 Fun.id);
  refill_evicts_oldest 200

(* --- Aspace --- *)

let mk_aspace () =
  let phys = Phys.create () in
  (phys, Aspace.create phys)

let test_aspace_write_read () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      let va = 0x10000 in
      ignore (Aspace.map a ~name:"m" ~va ~len:(Size.kib 64) ());
      let data = Bytes.of_string "hello virtual memory" in
      Aspace.write a ~va:(va + 100) data;
      let back = Aspace.read a ~va:(va + 100) ~len:(Bytes.length data) in
      checkb "roundtrip" true (Bytes.equal data back))
    ()

let test_aspace_cross_page_write () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      let va = 0x10000 in
      ignore (Aspace.map a ~name:"m" ~va ~len:(Size.kib 64) ());
      let data = Bytes.make 6000 'Z' in
      Aspace.write a ~va:(va + 3000) data;
      let back = Aspace.read a ~va:(va + 3000) ~len:6000 in
      checkb "spans pages" true (Bytes.equal data back))
    ()

let test_aspace_pager () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      let pager =
        { Aspace.page_in =
            (fun rel ->
              let p = Phys.alloc (Aspace.phys a) in
              Bytes.fill p.Phys.data 0 4096 (Char.chr (65 + rel));
              `Page p) }
      in
      ignore (Aspace.map a ~name:"m" ~va:0x20000 ~len:(Size.kib 16) ~pager ());
      let b = Aspace.read a ~va:(0x20000 + 4096) ~len:4 in
      checkb "paged in from pager" true (Bytes.to_string b = "BBBB"))
    ()

let test_aspace_segfault () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      checkb "unmapped access raises" true
        (try ignore (Aspace.read a ~va:0x999000 ~len:1); false
         with Invalid_argument _ -> true))
    ()

let test_aspace_many_mappings () =
  (* Exercises the sorted-array binary search and last-hit cache: many
     disjoint mappings, accesses hopping between them, holes in between. *)
  in_sim (fun () ->
      let _, a = mk_aspace () in
      let base = 0x100000 in
      let stride = Size.kib 64 in
      let n = 16 in
      for i = 0 to n - 1 do
        (* 32 KiB mapped, 32 KiB hole between consecutive mappings. *)
        ignore
          (Aspace.map a
             ~name:(Printf.sprintf "m%d" i)
             ~va:(base + (i * stride)) ~len:(Size.kib 32) ())
      done;
      (* Write a distinct byte into each mapping, in shuffled order. *)
      let order = [ 7; 0; 15; 3; 3; 12; 1; 8; 14; 2; 9; 11; 4; 13; 6; 5; 10 ] in
      List.iter
        (fun i ->
          Aspace.write a ~va:(base + (i * stride) + 17)
            (Bytes.make 3 (Char.chr (65 + i))))
        order;
      List.iter
        (fun i ->
          let b = Aspace.read a ~va:(base + (i * stride) + 17) ~len:3 in
          checkb
            (Printf.sprintf "mapping %d contents" i)
            true
            (Bytes.to_string b = String.make 3 (Char.chr (65 + i))))
        order;
      (* Hole between mappings still faults. *)
      checkb "hole segfaults" true
        (try
           ignore (Aspace.read a ~va:(base + Size.kib 40) ~len:1);
           false
         with Invalid_argument _ -> true);
      (* Below the first and above the last mapping too. *)
      checkb "below segfaults" true
        (try
           ignore (Aspace.read a ~va:(base - Size.kib 4) ~len:1);
           false
         with Invalid_argument _ -> true);
      checkb "above segfaults" true
        (try
           ignore (Aspace.read a ~va:(base + (n * stride) + Size.kib 36) ~len:1);
           false
         with Invalid_argument _ -> true);
      (* find_mapping still works on the sorted array. *)
      checkb "find_mapping" true (Aspace.find_mapping a ~name:"m9" <> None);
      (* Unmap one and confirm its range faults while neighbors survive. *)
      (match Aspace.find_mapping a ~name:"m3" with
      | Some m -> Aspace.unmap a m
      | None -> Alcotest.fail "m3 missing");
      checkb "unmapped faults" true
        (try
           ignore (Aspace.read a ~va:(base + (3 * stride) + 17) ~len:1);
           false
         with Invalid_argument _ -> true);
      let b = Aspace.read a ~va:(base + (2 * stride) + 17) ~len:3 in
      checkb "neighbor intact" true (Bytes.to_string b = "CCC"))
    ()

let test_aspace_overlap_rejected () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      ignore (Aspace.map a ~name:"m1" ~va:0x10000 ~len:(Size.kib 16) ());
      checkb "overlap" true
        (try ignore (Aspace.map a ~name:"m2" ~va:0x12000 ~len:(Size.kib 16) ()); false
         with Invalid_argument _ -> true))
    ()

let test_aspace_readonly_mapping () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      ignore (Aspace.map a ~name:"ro" ~va:0x10000 ~len:4096 ~writable:false ());
      ignore (Aspace.read a ~va:0x10000 ~len:4);
      checkb "write rejected" true
        (try Aspace.write a ~va:0x10000 (Bytes.make 1 'x'); false
         with Invalid_argument _ -> true))
    ()

let test_aspace_fault_handler_called_once_per_page () =
  in_sim (fun () ->
      let _, a = mk_aspace () in
      let faults = ref 0 in
      let handler (f : Aspace.fault) =
        incr faults;
        Ptloc.set f.Aspace.f_loc (Pte.set_writable (Ptloc.get f.Aspace.f_loc) true)
      in
      ignore
        (Aspace.map a ~name:"m" ~va:0x10000 ~len:(Size.kib 16)
           ~new_pages_writable:false ~on_write_fault:handler ());
      Aspace.write a ~va:0x10000 (Bytes.make 10 'a');
      Aspace.write a ~va:0x10100 (Bytes.make 10 'b');
      checki "one fault for the page" 1 !faults;
      Aspace.write a ~va:0x11000 (Bytes.make 10 'c');
      checki "second page faults" 2 !faults;
      (* Re-protect and write again: a new fault. *)
      Aspace.protect_page a ~vpn:(Addr.vpn_of_va 0x10000);
      Aspace.shootdown a [ Addr.vpn_of_va 0x10000 ];
      Aspace.write a ~va:0x10000 (Bytes.make 10 'd');
      checki "re-armed" 3 !faults)
    ()

let test_aspace_shared_frame () =
  in_sim (fun () ->
      let phys = Phys.create () in
      let a1 = Aspace.create ~name:"p1" phys in
      let a2 = Aspace.create ~name:"p2" phys in
      let frame = Phys.alloc phys in
      Bytes.fill frame.Phys.data 0 4096 'S';
      let pager = { Aspace.page_in = (fun _ -> `Page frame) } in
      ignore (Aspace.map a1 ~name:"shm" ~va:0x40000 ~len:4096 ~pager ());
      ignore (Aspace.map a2 ~name:"shm" ~va:0x40000 ~len:4096 ~pager ());
      Aspace.write a1 ~va:0x40000 (Bytes.of_string "XY");
      let b = Aspace.read a2 ~va:0x40000 ~len:2 in
      checkb "visible across processes" true (Bytes.to_string b = "XY");
      checki "rmap has both" 2 (Phys.rmap_length frame))
    ()

let test_aspace_unmap_frees () =
  in_sim (fun () ->
      let phys, a = mk_aspace () in
      let m = Aspace.map a ~name:"m" ~va:0x10000 ~len:(Size.kib 64) () in
      Aspace.write a ~va:0x10000 (Bytes.make (Size.kib 64) 'x');
      checki "frames live" 16 (Phys.live_frames phys);
      Aspace.unmap a m;
      checki "frames freed" 0 (Phys.live_frames phys);
      ignore (Aspace.map a ~name:"m2" ~va:0x10000 ~len:4096 ()))
    ()

(* --- Protect strategies (Fig. 1 mechanics) --- *)

let setup_dirty_mapping ~mapping_pages ~dirty_pages =
  let phys = Phys.create () in
  let a = Aspace.create phys in
  let va = 0x4000_0000 in
  let dirty = ref [] in
  let handler (f : Aspace.fault) =
    Ptloc.set f.Aspace.f_loc (Pte.set_writable (Ptloc.get f.Aspace.f_loc) true);
    dirty := (f.Aspace.f_vpn, f.Aspace.f_loc) :: !dirty
  in
  ignore
    (Aspace.map a ~name:"m" ~va ~len:(mapping_pages * 4096)
       ~new_pages_writable:false ~on_write_fault:handler ());
  (* Dirty [dirty_pages] spread across the mapping. *)
  let stride = max 1 (mapping_pages / dirty_pages) in
  for i = 0 to dirty_pages - 1 do
    Aspace.write a ~va:(va + (i * stride * 4096)) (Bytes.make 8 'd')
  done;
  (a, va, mapping_pages * 4096, List.rev !dirty)

let test_protect_all_strategies_protect () =
  in_sim (fun () ->
      List.iter
        (fun strat ->
          let a, va, len, dirty = setup_dirty_mapping ~mapping_pages:512 ~dirty_pages:16 in
          let n =
            match strat with
            | `Scan -> Protect.scan_mapping a ~mapping_va:va ~mapping_len:len dirty
            | `PerPage -> Protect.per_page_walk a dirty
            | `Trace -> Protect.trace_buffer a dirty
          in
          checki "all protected" 16 n;
          (* Every dirty page is read-only again. *)
          List.iter
            (fun (_, loc) -> checkb "ro" false (Pte.writable (Ptloc.get loc)))
            dirty)
        [ `Scan; `PerPage; `Trace ])
    ()

let test_protect_cost_ordering () =
  in_sim (fun () ->
      (* Small dirty set in a large mapping: trace < per-page < scan. *)
      let cost strat =
        let a, va, len, dirty =
          setup_dirty_mapping ~mapping_pages:(256 * 1024) ~dirty_pages:4
        in
        let t0 = Sched.now () in
        ignore
          (match strat with
          | `Scan -> Protect.scan_mapping a ~mapping_va:va ~mapping_len:len dirty
          | `PerPage -> Protect.per_page_walk a dirty
          | `Trace -> Protect.trace_buffer a dirty);
        Sched.now () - t0
      in
      let scan = cost `Scan and per_page = cost `PerPage and trace = cost `Trace in
      checkb "scan slowest" true (scan > per_page);
      checkb "trace fastest" true (per_page > trace))
    ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vm"
    [
      ("addr", [ tc "arith" test_addr_arith; tc "index" test_addr_index ]);
      ( "pte",
        [ tc "bits" test_pte_bits;
          tc "leaf kernel masks" test_leaf_kernel_masks;
          tc "leaf kernel bounds" test_leaf_kernel_bounds;
          QCheck_alcotest.to_alcotest prop_leaf_kernels_model ] );
      ( "ptable",
        [
          tc "walk/set/lookup" test_ptable_walk_set_lookup;
          tc "loc stable" test_ptable_loc_stable;
          tc "iter_leaves window" test_ptable_iter_leaves_window;
          QCheck_alcotest.to_alcotest prop_ptable_scans_model;
          QCheck_alcotest.to_alcotest prop_ptable_model;
        ] );
      ( "phys",
        [
          tc "alloc/free" test_phys_alloc_free;
          tc "copy" test_phys_copy;
          tc "rmap" test_phys_rmap;
        ] );
      ( "tlb",
        [
          tc "hit/miss" test_tlb_hit_miss;
          tc "eviction" test_tlb_eviction;
          tc "shootdown" test_tlb_shootdown_cost;
          tc "flush empties the ring" test_tlb_flush;
          QCheck_alcotest.to_alcotest prop_tlb_model;
        ] );
      ( "aspace",
        [
          tc "write/read" test_aspace_write_read;
          tc "cross page" test_aspace_cross_page_write;
          tc "pager" test_aspace_pager;
          tc "segfault" test_aspace_segfault;
          tc "many mappings / binary search" test_aspace_many_mappings;
          tc "overlap" test_aspace_overlap_rejected;
          tc "read-only mapping" test_aspace_readonly_mapping;
          tc "fault once per page" test_aspace_fault_handler_called_once_per_page;
          tc "shared frame" test_aspace_shared_frame;
          tc "unmap frees" test_aspace_unmap_frees;
        ] );
      ( "protect",
        [
          tc "strategies protect" test_protect_all_strategies_protect;
          tc "cost ordering" test_protect_cost_ordering;
        ] );
    ]
