type subsystem =
  | Sched
  | Vm
  | Blockdev
  | Fs
  | Objstore
  | Msnap
  | Aurora
  | Db
  | Host

let subsystem_name = function
  | Sched -> "sched"
  | Vm -> "vm"
  | Blockdev -> "blockdev"
  | Fs -> "fs"
  | Objstore -> "objstore"
  | Msnap -> "msnap"
  | Aurora -> "aurora"
  | Db -> "db"
  | Host -> "host"

type t = { p_sub : subsystem; p_name : string; p_id : int }

(* Probes are interned by (subsystem, name): repeated [make] calls with
   the same name return the same value, so the dense [id] can key flat
   per-probe stats arrays (Trace keeps its emit-time summary there —
   an int-indexed array load instead of a hashed tuple per event). *)
let intern_lock = Mutex.create ()
let interned : (string, t) Hashtbl.t = Hashtbl.create 128
let by_id : t array ref = ref [||]
let next_id = ref 0

let make p_sub p_name =
  let key = subsystem_name p_sub ^ "/" ^ p_name in
  Mutex.lock intern_lock;
  let p =
    match Hashtbl.find_opt interned key with
    | Some p -> p
    | None ->
      let p = { p_sub; p_name; p_id = !next_id } in
      incr next_id;
      Hashtbl.add interned key p;
      let n = Array.length !by_id in
      if p.p_id >= n then begin
        let nb = Array.make (max 64 (2 * max 1 n)) p in
        Array.blit !by_id 0 nb 0 n;
        by_id := nb
      end;
      !by_id.(p.p_id) <- p;
      p
  in
  Mutex.unlock intern_lock;
  p

let name p = p.p_name
let subsystem p = p.p_sub
let id p = p.p_id
let count () = !next_id
let of_id i = !by_id.(i)

(* db engines: flat historical names, rendered verbatim by Tables 7/9 *)
let db_fsync = make Db "fsync"
let db_write = make Db "write"
let db_read = make Db "read"
let db_memsnap = make Db "memsnap"
let db_checkpoint = make Db "checkpoint"
let db_memtable_flush = make Db "memtable_flush"
let db_compaction = make Db "compaction"
let db_pg_checkpoint = make Db "pg_checkpoint"

(* msnap core *)
let msnap_persist = make Msnap "msnap_persist"
let msnap_persist_reset = make Msnap "msnap_persist.reset"
let msnap_persist_initiate = make Msnap "msnap_persist.initiate"
let msnap_persist_wait = make Msnap "msnap_persist.wait"
let msnap_persist_total = make Msnap "msnap_persist.total"
let msnap_wait = make Msnap "msnap_wait"
let msnap_first_fault = make Msnap "msnap.first_fault"
let msnap_take_dirty = make Msnap "msnap.take_dirty"
let msnap_pte_reset = make Msnap "msnap.pte_reset"
let msnap_durable = make Msnap "msnap.durable"

(* object store *)
let objstore_commits = make Objstore "objstore.commits"
let objstore_flush = make Objstore "objstore.flush"
let objstore_commit_queued = make Objstore "objstore.commit_queued"
let objstore_device_commit = make Objstore "objstore.device_commit"

(* vm *)
let vm_write_fault = make Vm "vm.write_fault"
let vm_read_fault = make Vm "vm.read_fault"
let vm_page_in = make Vm "vm.page_in"
let vm_pt_walk = make Vm "vm.pt_walk"
let vm_shootdown = make Vm "vm.tlb_shootdown"

(* scheduler *)
let sched_spawn = make Sched "sched.spawn"
let sched_block = make Sched "sched.block"
let sched_wake = make Sched "sched.wake"
let sched_thread = make Sched "sched.thread"

(* block device *)
let disk_write = make Blockdev "disk.write"
let disk_read = make Blockdev "disk.read"
let disk_flush = make Blockdev "disk.flush"

(* file systems *)
let fs_write = make Fs "fs.write"
let fs_fsync = make Fs "fs.fsync"
let fs_journal = make Fs "fs.journal"
let fs_writeback = make Fs "fs.writeback"
let fs_msync = make Fs "fs.msync"

(* aurora *)
let aurora_checkpoint = make Aurora "aurora.checkpoint"
let aurora_stall = make Aurora "aurora.stall"
let aurora_shadow = make Aurora "aurora.shadow"
let aurora_io = make Aurora "aurora.io"
let aurora_collapse = make Aurora "aurora.collapse"
let aurora_checkpoint_app = make Aurora "aurora.checkpoint_app"
let aurora_cow_fault = make Aurora "aurora.cow_fault"

module Bucket = struct
  (* Dense ids: the scheduler keeps per-bucket CPU counters in a flat
     int array indexed by these, so with_bucket enter/exit and the cpu
     hot path never touch a hash table. "user" must stay id 0 — it is
     every thread's initial bucket. *)
  type t = int

  let names =
    [| "user"; "io"; "log"; "write"; "fsync"; "read"; "memsnap";
       "memsnap flush"; "page faults" |]

  let count = Array.length names
  let id b = b
  let of_id i = i
  let name b = names.(b)
  let user = 0
  let io = 1
  let log = 2
  let write = 3
  let fsync = 4
  let read = 5
  let memsnap = 6
  let memsnap_flush = 7
  let page_faults = 8
end
