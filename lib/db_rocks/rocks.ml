module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora
module Sync = Msnap_sim.Sync
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Slice = Msnap_util.Slice

type backend =
  | Baseline of Msnap_fs.Fs.t
  | Memsnap of Msnap_core.Msnap.t
  | Aurora of Msnap_aurora.Aurora.Kernel.t

type config = {
  memtable_flush_bytes : int;
  region_pages : int;
}

let default_config =
  { memtable_flush_bytes = 4 * 1024 * 1024; region_pages = 65536 }

let wal_record_header = 24
let aurora_region_base = 0x5800 lsl 32

module Memtable = struct
  type t = {
    list : string option Skiplist.t;
    (* Scratch for [put]'s descent: puts are serialized under the write
       group's lock, and readers use [pred0]. *)
    path : string option Skiplist.node array;
    mutable bytes : int;
  }

  let create ?seed () =
    let list = Skiplist.create ?seed None in
    { list; path = Skiplist.path list; bytes = 0 }

  let list m = m.list
  let bytes m = m.bytes

  (* An entry's length as RocksDB tags it: a type byte, then the value
     (none for a tombstone). *)
  let entry_len = function Some v -> 1 + String.length v | None -> 1

  let put m key v =
    let n = Skiplist.succ (Skiplist.find_path m.list key m.path) in
    if Skiplist.holds m.list n key then begin
      m.bytes <- m.bytes + entry_len v - entry_len n.value;
      Skiplist.set_value n v
    end
    else begin
      let level = Skiplist.draw_level m.list in
      Skiplist.link m.list m.path key v ~level;
      m.bytes <- m.bytes + String.length key + entry_len v + (16 * level)
    end

  let clear m =
    Skiplist.clear m.list;
    m.bytes <- 0
end

type baseline_state = {
  fs : Fs.t;
  wal : Fs.file;
  mutable wal_size : int;
  mutable wal_zeros : Bytes.t; (* shared backing for zero-payload records *)
  memtable : Memtable.t;
  lsm : Lsm.t;
  lock : Sync.Mutex.t;
  flush_bytes : int;
  mutable n_flushes : int;
  (* RocksDB-style write groups: concurrent committers queue and a leader
     performs one WAL append + fsync for the whole group. *)
  write_group : (string * string option) list Sync.Group.t;
}

type state =
  | B of baseline_state
  | R of Pskiplist.t

type t = { st : state; db_name : string }

let region_ops_of_msnap k md =
  {
    Pskiplist.ro_write = (fun ~off b -> Msnap.write k md ~off b);
    ro_read_into =
      (fun ~off buf ~pos ~len -> Msnap.read_into k md ~off buf ~pos ~len);
    ro_persist =
      (fun () ->
        Metrics.timed Probe.db_memsnap (fun () ->
            ignore (Msnap.persist k ~region:md ())));
    ro_pages = Msnap.length md / 4096;
  }

let region_ops_of_aurora r =
  {
    Pskiplist.ro_write = (fun ~off b -> Aurora.Region.write r ~off b);
    ro_read_into =
      (fun ~off buf ~pos ~len -> Aurora.Region.read_into r ~off buf ~pos ~len);
    ro_persist =
      (fun () -> Metrics.timed Probe.db_checkpoint (fun () -> Aurora.Region.checkpoint r));
    ro_pages = Aurora.Region.length r / 4096;
  }

let open_state ~recovering ?(config = default_config) backend ~name =
  match backend with
  | Baseline fs ->
    B
      {
        fs;
        wal = Fs.open_file fs (name ^ ".wal");
        wal_size = 0;
        wal_zeros = Bytes.empty;
        memtable = Memtable.create ();
        lsm = Lsm.create fs ~name;
        lock = Sync.Mutex.create ();
        flush_bytes = config.memtable_flush_bytes;
        n_flushes = 0;
        write_group = Sync.Group.create ();
      }
  | Memsnap k ->
    let md =
      Msnap.open_region k ~name:("rocks/" ^ name)
        ~len:(config.region_pages * 4096) ()
    in
    let ops = region_ops_of_msnap k md in
    let ps = if recovering then Pskiplist.recover ops else Pskiplist.create ops in
    R ps
  | Aurora k ->
    let r =
      Aurora.Region.create k ~name:("rocks/" ^ name) ~va:aurora_region_base
        ~len:(config.region_pages * 4096)
    in
    let ops = region_ops_of_aurora r in
    let ps = if recovering then Pskiplist.recover ops else Pskiplist.create ops in
    R ps

let open_db ?config backend ~name =
  { st = open_state ~recovering:false ?config backend ~name; db_name = name }

(* --- baseline paths --- *)

let record_serialize_cost = 350

let wal_append b pairs =
  let module Sched = Msnap_sim.Sched in
  List.iter
    (fun (k, v) ->
      let len = wal_record_header + String.length k + Memtable.entry_len v in
      (* Serializing the record is userspace "Log" work; the write and the
         fsync are kernel time (the Table 1 split). *)
      Sched.with_bucket Probe.Bucket.log (fun () -> Sched.cpu record_serialize_cost);
      (* The simulated record carries no payload; reference one shared
         zero buffer instead of allocating per append. *)
      if Bytes.length b.wal_zeros < len then b.wal_zeros <- Bytes.make len '\000';
      Sched.with_bucket Probe.Bucket.write (fun () ->
          Metrics.timed Probe.db_write (fun () ->
              Fs.writev b.fs b.wal ~off:b.wal_size
                [ Slice.make b.wal_zeros ~pos:0 ~len ]));
      b.wal_size <- b.wal_size + len)
    pairs;
  Msnap_sim.Sched.with_bucket Probe.Bucket.fsync (fun () ->
      Metrics.timed Probe.db_fsync (fun () -> Fs.fsync b.fs b.wal))

let maybe_flush b =
  if Memtable.bytes b.memtable >= b.flush_bytes then begin
    b.n_flushes <- b.n_flushes + 1;
    Metrics.incr Probe.db_memtable_flush;
    let pairs = ref [] in
    Skiplist.iter (Memtable.list b.memtable) (fun k v -> pairs := (k, v) :: !pairs);
    Lsm.add_run b.lsm (List.rev !pairs);
    Memtable.clear b.memtable;
    Fs.truncate b.fs b.wal 0;
    Metrics.timed Probe.db_fsync (fun () -> Fs.fsync b.fs b.wal);
    b.wal_size <- 0
  end

(* One write-group round: one WAL append + fsync for every put queued
   since the last round, in arrival order. *)
let write_group_round b batch =
  let records = List.concat batch in
  Sync.Mutex.with_lock b.lock (fun () ->
      wal_append b records;
      List.iter (fun (k, v) -> Memtable.put b.memtable k v) records;
      maybe_flush b)

let baseline_write b pairs =
  let iv = Sync.Ivar.create () in
  Sync.Group.submit b.write_group ~round:(write_group_round b) pairs iv;
  Sync.await iv

let baseline_put_batch b pairs =
  baseline_write b (List.map (fun (k, v) -> (k, Some v)) pairs)

let baseline_delete b key = baseline_write b [ (key, None) ]

let baseline_get b key =
  match Skiplist.find (Memtable.list b.memtable) key with
  | Some v -> v
  | None -> Option.join (Lsm.get b.lsm key)

let baseline_seek b key ~n =
  (* Merge the MemTable window with the LSM window, MemTable winning. *)
  let tbl = Hashtbl.create 64 in
  let taken = ref 0 in
  Skiplist.iter_from (Memtable.list b.memtable) key (fun k v ->
      if !taken < 2 * n then begin
        Hashtbl.replace tbl k v;
        incr taken;
        true
      end
      else false);
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k (Some v))
    (Lsm.collect_from b.lsm key ~n:(2 * n));
  Hashtbl.fold
    (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filteri (fun i _ -> i < n)

(* --- public API --- *)

let put t ~key ~value =
  match t.st with
  | B b -> baseline_put_batch b [ (key, value) ]
  | R ps -> Pskiplist.insert ps ~key ~value

let put_batch t pairs =
  match t.st with
  | B b -> baseline_put_batch b pairs
  | R ps -> Pskiplist.insert_batch ps pairs

let get t key =
  match t.st with
  | B b -> baseline_get b key
  | R ps -> Pskiplist.find ps key

let delete t key =
  match t.st with
  | B b -> baseline_delete b key
  | R ps -> ignore (Pskiplist.delete ps key)

let seek t key ~n =
  match t.st with
  | B b -> baseline_seek b key ~n
  | R ps ->
    let acc = ref [] in
    let taken = ref 0 in
    Pskiplist.iter_from ps key (fun k v ->
        if !taken < n then begin
          acc := (k, v) :: !acc;
          incr taken;
          true
        end
        else false);
    List.rev !acc

let count t =
  match t.st with
  | B b ->
    (* Test-only: merge everything (small datasets). *)
    let tbl = Hashtbl.create 1024 in
    (match b.lsm with
    | lsm ->
      List.iter
        (fun (k, v) -> Hashtbl.replace tbl k (Some v))
        (Lsm.collect_from lsm "" ~n:max_int));
    Skiplist.iter (Memtable.list b.memtable) (fun k v -> Hashtbl.replace tbl k v);
    Hashtbl.fold (fun _ v acc -> if v = None then acc else acc + 1) tbl 0
  | R ps -> Pskiplist.count ps

let flushes t = match t.st with B b -> b.n_flushes | R _ -> 0
let compactions t = match t.st with B b -> Lsm.compactions b.lsm | R _ -> 0

(* --- crash recovery --- *)

(* Remap the region on a kernel booted over a post-crash device and
   recompute the skip pointers from the persisted list. The baseline
   would replay its WAL; recovery is only modelled for the region-backed
   design, which is what the paper's crash experiments exercise. *)
let recover ?config k ~name =
  { st = open_state ~recovering:true ?config (Memsnap k) ~name; db_name = name }
