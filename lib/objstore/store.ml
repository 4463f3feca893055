module Device = Msnap_blockdev.Device
module Balloc = Msnap_blockdev.Balloc
module Slice = Msnap_util.Slice
module Pool = Msnap_util.Pool
module Itab = Msnap_util.Itab
module Sync = Msnap_sim.Sync
module Sched = Msnap_sim.Sched
module Costs = Msnap_sim.Costs
module Metrics = Msnap_sim.Metrics
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe

exception Corrupt of string

type ticket = unit Sync.cell

type pending = {
  p_updates : (int * int) list; (* (page index, data block) *)
  p_segs : (int * Slice.t) list;
      (* device segments carrying the data: slices straight over the
         caller's page frames (ownership rule: stable until durable) *)
  p_epoch : int;
  p_size : int; (* logical size implied by this commit *)
  p_flow : int; (* trace flow id linking this Î¼Checkpoint's events; 0 = none *)
}

type obj = {
  header_block : int;
  mutable hdr : Layout.header;
  mutable next_epoch : int;
  commits : pending Sync.Group.t; (* group commit, one round per batch *)
  mutable deleted : bool;
}

type t = {
  dev : Device.t;
  alloc : Balloc.t;
      (* volatile: rebuilt at mount by walking every object's tree *)
  cache : Radix.node Itab.t; (* block -> owned image; Bytes.empty = miss *)
  mutable sb : Layout.superblock;
  objects : (string, obj) Hashtbl.t;
  meta_lock : Sync.Mutex.t;
  mutable next_obj_id : int;
}

let bsz = Layout.block_size

let block_off b = b * bsz

(* Metadata blocks are fresh buffers, never reused: lent as they are. *)
let write_block dev b bytes =
  Device.write_slice dev ~off:(block_off b) (Slice.of_bytes bytes)
let read_block_raw dev b = Device.read dev ~off:(block_off b) ~len:bsz

let read_block_raw_into dev b dst =
  Device.read_into dev ~off:(block_off b) (Slice.of_bytes dst)

(* Headers and superblocks occupy the first sector of their block; the
   single-sector write is what makes the commit atomic. *)
let write_commit_sector dev b bytes =
  assert (Bytes.length bytes = 512);
  write_block dev b bytes

let read_commit_sector dev b = Device.read dev ~off:(block_off b) ~len:512

(* A miss reads the block straight into a pooled buffer, which becomes
   the cached node image: the on-disk bytes are the node. *)
let read_node t b =
  let n = Itab.find t.cache b in
  if n != Bytes.empty then n
  else begin
    let n = Pool.alloc bsz in
    read_block_raw_into t.dev b n;
    Itab.set t.cache b n;
    n
  end

(* Uncache freed blocks and recycle their images: called after the header
   flip, so they belong to an older epoch whose write has completed. *)
let evict t blocks =
  List.iter
    (fun b ->
      let n = Itab.find t.cache b in
      if n != Bytes.empty then begin
        Itab.remove t.cache b;
        Pool.recycle n
      end)
    blocks

(* --- formatting and mount --- *)

let total_blocks_of dev = Device.size dev / bsz

let write_superblock t =
  let gen = t.sb.Layout.generation + 1 in
  let sb = { t.sb with Layout.generation = gen } in
  let slot = gen mod Layout.sb_blocks in
  write_commit_sector t.dev slot (Layout.superblock_to_bytes sb);
  t.sb <- sb

let format dev =
  let sb =
    { Layout.generation = 1; directory_block = 0;
      total_blocks = total_blocks_of dev }
  in
  write_commit_sector dev 1 (Layout.superblock_to_bytes sb);
  (* Invalidate slot 0 in case the volume held an older store. *)
  write_commit_sector dev 0 (Bytes.make 512 '\000')

let load_superblock dev =
  let candidates =
    List.filter_map
      (fun slot -> Layout.superblock_of_bytes (read_commit_sector dev slot))
      [ 0; 1 ]
  in
  match candidates with
  | [] -> raise (Corrupt "no valid superblock")
  | l ->
    List.fold_left
      (fun best sb ->
        if sb.Layout.generation > best.Layout.generation then sb else best)
      (List.hd l) l

let mount dev =
  let sb = load_superblock dev in
  let t =
    {
      dev;
      alloc =
        Balloc.create ~total_blocks:sb.Layout.total_blocks
          ~reserved:Layout.first_data_block;
      cache = Itab.create ~initial:1024 ~absent:Bytes.empty ();
      sb;
      objects = Hashtbl.create 16;
      meta_lock = Sync.Mutex.create ();
      next_obj_id = 1;
    }
  in
  if sb.Layout.directory_block <> 0 then begin
    Balloc.mark_allocated t.alloc sb.Layout.directory_block;
    let entries =
      Layout.directory_of_bytes (read_block_raw dev sb.Layout.directory_block)
    in
    List.iter
      (fun (name, hblock) ->
        Balloc.mark_allocated t.alloc hblock;
        match Layout.header_of_bytes (read_commit_sector dev hblock) with
        | None ->
          raise (Corrupt (Printf.sprintf "object %s: bad header" name))
        | Some hdr ->
          if hdr.Layout.obj_id >= t.next_obj_id then
            t.next_obj_id <- hdr.Layout.obj_id + 1;
          Radix.iter_nodes ~read_node:(read_node t) ~root:hdr.Layout.root_block
            ~height:hdr.Layout.height ~f:(Balloc.mark_allocated t.alloc);
          Radix.iter ~read_node:(read_node t) ~root:hdr.Layout.root_block
            ~height:hdr.Layout.height ~f:(fun ~index:_ ~block ->
              Balloc.mark_allocated t.alloc block);
          Hashtbl.replace t.objects name
            { header_block = hblock; hdr; next_epoch = hdr.Layout.epoch + 1;
              commits = Sync.Group.create (); deleted = false })
      entries
  end;
  t

(* --- directory management --- *)

let directory_entries t =
  Hashtbl.fold
    (fun name o acc -> if o.deleted then acc else (name, o.header_block) :: acc)
    t.objects []
  |> List.sort compare

(* Rewrite the directory COW-style and flip the superblock. Caller holds
   [meta_lock]. *)
let persist_directory t =
  let old = t.sb.Layout.directory_block in
  let entries = directory_entries t in
  if entries = [] then begin
    t.sb <- { t.sb with Layout.directory_block = 0 };
    write_superblock t
  end
  else begin
    let nb = List.hd (Balloc.alloc_run t.alloc 1) in
    write_block t.dev nb (Layout.directory_to_bytes entries);
    t.sb <- { t.sb with Layout.directory_block = nb };
    write_superblock t
  end;
  (* The superblock write above has completed, so no durable state
     references the old directory block any more. *)
  if old <> 0 then Balloc.free_now t.alloc [ old ]

let create t ~name ?(meta = 0) () =
  Sync.Mutex.with_lock t.meta_lock (fun () ->
      (match Hashtbl.find_opt t.objects name with
      | Some o when not o.deleted ->
        invalid_arg (Printf.sprintf "Store.create: %s exists" name)
      | _ -> ());
      if List.length (directory_entries t) >= Layout.max_directory_entries then
        invalid_arg "Store.create: directory full";
      let hblock = List.hd (Balloc.alloc_run t.alloc 1) in
      let hdr =
        { Layout.obj_id = t.next_obj_id; obj_name = name; epoch = 0;
          root_block = 0; height = 0; size_bytes = 0; meta }
      in
      t.next_obj_id <- t.next_obj_id + 1;
      write_commit_sector t.dev hblock (Layout.header_to_bytes hdr);
      let o =
        { header_block = hblock; hdr; next_epoch = 1;
          commits = Sync.Group.create (); deleted = false }
      in
      Hashtbl.replace t.objects name o;
      persist_directory t;
      o)

let open_obj t ~name =
  match Hashtbl.find_opt t.objects name with
  | Some o when not o.deleted -> Some o
  | _ -> None

let delete t o =
  Sync.Mutex.with_lock t.meta_lock (fun () ->
      if o.deleted then invalid_arg "Store.delete: already deleted";
      o.deleted <- true;
      Hashtbl.remove t.objects o.hdr.Layout.obj_name;
      persist_directory t;
      (* Reclaim the object's blocks. *)
      let freed = ref [ o.header_block ] in
      Radix.iter_nodes ~read_node:(read_node t) ~root:o.hdr.Layout.root_block
        ~height:o.hdr.Layout.height ~f:(fun b -> freed := b :: !freed);
      Radix.iter ~read_node:(read_node t) ~root:o.hdr.Layout.root_block
        ~height:o.hdr.Layout.height ~f:(fun ~index:_ ~block ->
          freed := block :: !freed);
      (* [persist_directory] has completed the superblock write that
         drops the object, so its blocks are unreachable on disk. *)
      Balloc.free_now t.alloc !freed;
      evict t !freed)

let list_objects t = List.map fst (directory_entries t)

let epoch o = o.hdr.Layout.epoch
let size_bytes o = o.hdr.Layout.size_bytes
let meta o = o.hdr.Layout.meta

let write_header t o hdr =
  write_commit_sector t.dev o.header_block (Layout.header_to_bytes hdr);
  o.hdr <- hdr

let set_meta t o meta =
  Sync.Mutex.with_lock t.meta_lock (fun () ->
      write_header t o { o.hdr with Layout.meta })

(* --- μCheckpoint commits --- *)

(* One group-commit round over a batch of pending commits: one combined
   COW tree update, one vectored node write, one header flip. Commits
   arriving during its IO join the next round (flat combining); a device
   failure mid-round leaves the previous epoch intact on disk and reaches
   every waiter through [Sync.Group]. *)
let commit_round t o batch =
  Sched.with_bucket Probe.Bucket.memsnap_flush @@ fun () ->
    let trace_t0 = if Trace.is_on () then Sched.now () else 0 in
    let updates = List.concat_map (fun p -> p.p_updates) batch in
    let epoch = List.fold_left (fun a p -> max a p.p_epoch) 0 batch in
    let size =
      List.fold_left (fun a p -> max a p.p_size) o.hdr.Layout.size_bytes batch
    in
    let result =
      Radix.update_batch ~read_node:(read_node t)
        ~alloc:(Balloc.alloc_run t.alloc) ~root:o.hdr.Layout.root_block
        ~height:o.hdr.Layout.height updates
    in
    Sched.cpu (result.Radix.nodes_visited * Costs.cow_node_cpu);
    (* Insert fresh nodes into the cache before they hit the device so
       concurrent readers of *other* objects never see stale views; this
       object runs one round at a time. Each image is also its own
       device segment: it is immutable from here on, so lending it to the
       write below satisfies the ownership rule. *)
    let node_segs =
      List.map
        (fun (b, n) ->
          Itab.set t.cache b n;
          (block_off b, Slice.of_bytes n))
        result.Radix.node_writes
    in
    (* One vectored command carries every data page and COW node of the
       batch; the header flip is a second, dependent command. Built as
       data segments in batch order with the node segments as the tail,
       directly — no intermediate concat + append copy.

       Write coalescing: sort the batch by device offset once. Every
       segment targets a freshly COW-allocated block, so offsets are
       distinct and the sort is a pure reordering within one command —
       same total bytes, same single latency charge — but it turns
       [Balloc.alloc_run]'s contiguous runs into sector-adjacent runs the
       device and stripe layers merge into fused commits. A torn command
       leaves the previous epoch intact either way: nothing in this
       command is reachable until the header flip after it. *)
    let segs =
      List.sort
        (fun (a, _) (b, _) -> compare (a : int) b)
        (List.fold_right (fun p acc -> p.p_segs @ acc) batch node_segs)
    in
    Device.writev t.dev segs;
    write_header t o
      { o.hdr with
        Layout.epoch;
        root_block = result.Radix.new_root;
        height = result.Radix.new_height;
        size_bytes = size };
    if Trace.is_on () then begin
      (* The header flip just made the batch durable: step every linked
         μCheckpoint flow through the device commit at this instant. *)
      List.iter
        (fun p ->
          if p.p_flow <> 0 then
            Trace.instant Probe.objstore_device_commit
              ~flow:(p.p_flow, Trace.Flow_step)
              ~argi:("epoch", epoch))
        batch;
      Trace.complete Probe.objstore_flush ~dur:(Sched.now () - trace_t0)
        ~args:
          [ ("object", Trace.S o.hdr.Layout.obj_name);
            ("commits", Trace.I (List.length batch));
            ("pages", Trace.I (List.length updates));
            ("nodes", Trace.I (List.length node_segs));
            ("epoch", Trace.I epoch) ]
    end;
    (* The header write above has completed: the superseded blocks are
       unreachable from the durable epoch, so they may be reused. *)
    Balloc.free_now t.alloc result.Radix.freed;
    evict t result.Radix.freed

(* The CPU-side setup of a commit, then [launch worker] with the worker
   that allocates blocks and submits to the group (not called for an
   empty commit). Returns the epoch and the ticket. *)
let start ~launch ~flow t o pages =
  if o.deleted then invalid_arg "Store.commit: deleted object";
  let iv = Sync.Ivar.create () in
  match pages with
  | [] ->
    Sync.Ivar.fill iv (Ok ());
    (epoch o, iv)
  | _ ->
    let epoch = o.next_epoch in
    o.next_epoch <- epoch + 1;
    Metrics.incr Probe.objstore_commits;
    let npages = List.length pages in
    if Trace.is_on () then
      Trace.instant Probe.objstore_commit_queued
        ?flow:(if flow <> 0 then Some (flow, Trace.Flow_step) else None)
        ~args:
          [ ("object", Trace.S o.hdr.Layout.obj_name);
            ("pages", Trace.I npages); ("epoch", Trace.I epoch) ];
    Sched.cpu (npages * Costs.io_initiate);
    let worker () =
      match Balloc.alloc_run t.alloc npages with
      | exception exn -> Sync.Ivar.fill iv (Error exn)
      | data_blocks ->
        (* One pass over the dirty pages builds the index->block updates
           and the device segments together and folds the size — the
           lists are identical to the old two [map2]s over the pair. *)
        let size = ref 0 in
        let rec build pages blocks =
          match (pages, blocks) with
          | [], [] -> ([], [])
          | (idx, data) :: ps, b :: bs ->
            if (idx + 1) * bsz > !size then size := (idx + 1) * bsz;
            let updates, segs = build ps bs in
            ( (idx, b) :: updates,
              (block_off b, Slice.of_bytes data) :: segs )
          | _ -> assert false (* alloc_run returned [npages] blocks *)
        in
        let updates, segs = build pages data_blocks in
        let size = !size in
        Sync.Group.submit o.commits ~round:(commit_round t o)
          { p_updates = updates; p_segs = segs; p_epoch = epoch;
            p_size = size; p_flow = flow }
          iv
    in
    launch worker;
    (epoch, iv)

(* [Msnap.persist] starts one commit per region before it awaits any
   (an asynchronous persist returns first), so the worker gets a thread
   of its own. *)
let commit_async ?(flow = 0) t o pages =
  start t o pages ~flow ~launch:(fun worker ->
      ignore (Sched.spawn ~name:"objstore-commit" worker))

(* The caller waits at once, so the worker is a one-job [fork_join]: it
   runs in the caller's fiber when nothing else is due. The worker
   raises nothing (its outcome goes to the ticket). *)
let commit t o pages =
  let epoch, iv =
    start t o pages ~flow:0 ~launch:(fun worker ->
        Sync.fork_join ~name:"objstore-commit" [ worker ])
  in
  Sync.await iv;
  epoch

let read_block t o idx =
  let b =
    Radix.lookup ~read_node:(read_node t) ~root:o.hdr.Layout.root_block
      ~height:o.hdr.Layout.height idx
  in
  if b = 0 then None else Some (read_block_raw t.dev b)

let read_block_into t o idx dst =
  if Bytes.length dst <> bsz then
    invalid_arg "Store.read_block_into: buffer must be one block";
  let b =
    Radix.lookup ~read_node:(read_node t) ~root:o.hdr.Layout.root_block
      ~height:o.hdr.Layout.height idx
  in
  if b = 0 then false
  else begin
    read_block_raw_into t.dev b dst;
    true
  end

let grow t o ~size_bytes =
  ignore t;
  if size_bytes > o.hdr.Layout.size_bytes then
    o.hdr <- { o.hdr with Layout.size_bytes }

let dispose t =
  Itab.iter (fun _ n -> Pool.recycle n) t.cache;
  Itab.clear t.cache

let free_blocks t = Balloc.free_blocks t.alloc
