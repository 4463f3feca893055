(* Replays a generated operation script against one storage stack of the
   simulated machine and reports what it cost the host.

   Usage: driver.exe SCRIPT SECONDS TRACE

   The script (written by ../workloads.py from a seed) names the stack
   and holds set-up transactions (L blocks), measured transactions (B
   blocks, each run in one write transaction or ended by one persist; Q
   blocks, read-only and outside any transaction) and a verification
   block (V). Each pass is a fresh machine in its own [Sched.run]: boot
   + set-up (timed as set-up), every measured transaction (timed one by
   one), then a power failure at quiescence, recovery, and the
   verification reads on the recovered machine. After each pass the
   driver times a fixed reference loop (see [reference]). Pass 0 warms
   the host (buffer pools, heap); measured passes follow until SECONDS
   of wall time have elapsed, and at least three run.

   Output, one record per line:
     pass I SETUP_NS ROUNDS_DIGEST VERIFY_DIGEST P50_NS P99_NS HOST_NS SIM_NS REF_NS...
                            per pass: host ns per transaction (median,
                            99th percentile), total host and simulated
                            ns over its transactions, then each timing
                            of the reference loop
     layer NAME NS          TRACE=1: exclusive host ns per layer
     count NAME N           TRACE=1: work counts at the same seams
   Layers and counts cover the measured passes (I > 0). The harness
   recomputes every digest from its own model.

   TRACE=1 splits host time by layer from outside the program. The
   driver interposes on two seams the libraries already expose — the
   block device (a first-class [Device.S] module) and the SQLite
   pager's commit hook (a field of its persistence-backend record) — and
   wraps its own calls into the workload's entry API. A layer is charged
   host time while it is the innermost open span; the rest is
   harness. *)

module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Slice = Msnap_util.Slice
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora
module Db = Msnap_sqlite.Db
module Pager = Msnap_sqlite.Pager
module Backend_wal = Msnap_sqlite.Backend_wal
module Backend_msnap = Msnap_sqlite.Backend_msnap

(* CLOCK_MONOTONIC through bechamel.monotonic_clock's C stub, declared
   here unboxed so a reading allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* --- host speed reference ---

   A fixed, allocation-free loop: integer mixing, random word updates
   in a 32 KiB array and 4 KiB copies within a 256 KiB buffer, all
   cache-resident. It calls nothing in lib/, so no change there can move
   it, while a host that runs slower for a while (other tenants on the
   same core, frequency changes) slows it with the workload. The harness
   divides every host timing by it. *)

let ref_words = Array.make 4096 0
let ref_bytes = Bytes.make (1 lsl 18) 'r'
let ref_samples = 9

let reference () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for i = 1 to 400_000 do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
    let j = (!x lsr 16) land (Array.length ref_words - 1) in
    Array.unsafe_set ref_words j (Array.unsafe_get ref_words j + i);
    if i land 63 = 0 then
      Bytes.blit ref_bytes ((!x lsr 6) land 63 * 4096) ref_bytes (j land 63 * 4096) 4096
  done;
  now_ns () - t0

(* --- host-time attribution by layer --- *)

let harness = 0
let app = 1
let persist = 2
let blockdev = 3
let layer_names = [| "harness"; "app"; "persist"; "blockdev" |]
let tracing = ref false
let self_ns = Array.make 4 0

(* Open spans, innermost last; slot 0 is the harness and never closes.
   Spans opened by different green threads can interleave without
   nesting (a device command issued by a commit worker while the
   application thread is parked), so [leave] drops the innermost open
   span of its own layer, wherever it sits. *)
let stack = Array.make 4096 harness
let depth = ref 0
let last = ref 0

let charge () =
  let t = now_ns () in
  let l = stack.(!depth) in
  self_ns.(l) <- self_ns.(l) + (t - !last);
  last := t

let leave l =
  charge ();
  let i = ref !depth in
  while !i > 0 && stack.(!i) <> l do decr i done;
  if !i > 0 then begin
    Array.blit stack (!i + 1) stack !i (!depth - !i);
    decr depth
  end

let span l f =
  if not !tracing then f ()
  else begin
    charge ();
    incr depth;
    stack.(!depth) <- l;
    match f () with
    | v -> leave l; v
    | exception e -> leave l; raise e
  end

(* Work counts at the same seams (TRACE=1 only). *)
let dev_cmds = ref 0
let dev_write_bytes = ref 0
let persist_calls = ref 0

(* Forward every operation of [dev] unchanged, timing the command path.
   [include] keeps the wrapper a complete [Device.S] whatever else the
   signature carries. *)
let instrument (Device.Dev (m, d)) =
  let module D = (val m) in
  let module W = struct
    include D

    let writev t segs =
      incr dev_cmds;
      List.iter (fun (_, s) -> dev_write_bytes := !dev_write_bytes + Slice.length s) segs;
      span blockdev (fun () -> D.writev t segs)

    let write_slice t ~off s =
      incr dev_cmds;
      dev_write_bytes := !dev_write_bytes + Slice.length s;
      span blockdev (fun () -> D.write_slice t ~off s)

    let read_into t ~off s =
      incr dev_cmds;
      span blockdev (fun () -> D.read_into t ~off s)

    let flush t =
      incr dev_cmds;
      span blockdev (fun () -> D.flush t)

    let barrier t =
      incr dev_cmds;
      span blockdev (fun () -> D.barrier t)
  end in
  Device.Dev ((module W : Device.S with type t = D.t), d)

(* Only the commit is persistence; page-ins stay with the B-tree above
   them, as reads stay with the application on the region stacks. *)
let instrument_backend (b : Pager.backend) =
  { b with
    Pager.b_commit =
      (fun pages ->
        incr persist_calls;
        span persist (fun () -> b.Pager.b_commit pages)) }

(* --- scripts --- *)

type op =
  | Put of int * string * string  (* table index, key, value *)
  | Get of int * string
  | Del of int * string
  | Write of int * Bytes.t
  | Read of int * int

(* A measured transaction; [txn] is false for read-only blocks that run
   outside any transaction. *)
type block = { txn : bool; ops : op array }

type script = {
  stack_name : string;
  tables : string list;
  region_pages : int;
  preload : op array list;
  rounds : block array;
  verify : op array;
}

let parse path =
  let ic = open_in_bin path in
  let stack_name = ref "" and tables = ref [] and region_pages = ref 0 in
  let preload = ref [] and rounds = ref [] and verify = ref [] in
  let block = ref ' ' and ops = ref [] in
  let close_block () =
    let b = Array.of_list (List.rev !ops) in
    (match !block with
     | 'L' -> preload := b :: !preload
     | 'B' -> rounds := { txn = true; ops = b } :: !rounds
     | 'Q' -> rounds := { txn = false; ops = b } :: !rounds
     | 'V' -> verify := b :: !verify
     | _ -> ());
    ops := []
  in
  let op o = ops := o :: !ops in
  let key k = Db.key_of_int (int_of_string k) in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "perfbench-script"; "2" ] -> ()
       | [ "stack"; s ] -> stack_name := s
       | "tables" :: names -> tables := names
       | [ "region_pages"; n ] -> region_pages := int_of_string n
       | [ ("L" | "B" | "Q" | "V") as m ] ->
         close_block ();
         block := m.[0]
       | [ "P"; t; k; v ] -> op (Put (int_of_string t, key k, v))
       | [ "G"; t; k ] -> op (Get (int_of_string t, key k))
       | [ "D"; t; k ] -> op (Del (int_of_string t, key k))
       | [ "W"; off; data ] -> op (Write (int_of_string off, Bytes.of_string data))
       | [ "R"; off; len ] -> op (Read (int_of_string off, int_of_string len))
       | _ -> failwith ("bad script line: " ^ line)
     done
   with End_of_file -> ());
  close_block ();
  close_in ic;
  { stack_name = !stack_name;
    tables = !tables;
    region_pages = !region_pages;
    preload = List.rev !preload;
    rounds = Array.of_list (List.rev !rounds);
    verify = (match !verify with [ v ] -> v | _ -> failwith "script needs one V block") }

(* --- machines --- *)

(* What a stack offers the pass loop: run one measured transaction
   (appending its read results to the buffer), and crash + recover,
   yielding a reader over the recovered machine. *)
type machine = {
  round : block -> Buffer.t -> unit;
  recover : unit -> op array -> Buffer.t -> unit;
}

(* Host-side teardown run after each pass's simulation ends: pooled
   buffers go back to [Msnap_util.Pool] for the next pass. *)
let disposals = ref []
let on_dispose f = disposals := f :: !disposals

(* The bench harness's machine: two striped 512 MiB NVMe devices. *)
let mk_dev () =
  let dev =
    Device.of_stripe
      (Stripe.create
         [ Disk.create ~name:"nvme0" ~size:(Size.mib 512) ();
           Disk.create ~name:"nvme1" ~size:(Size.mib 512) () ])
  in
  on_dispose (fun () -> Device.dispose dev);
  if !tracing then instrument dev else dev

(* Power fails between transactions: everything acknowledged must
   survive recovery. *)
let crash dev =
  Device.fail_power dev ~torn_seed:7;
  Device.restore_power dev

let boot_msnap dev ~format =
  let phys = Phys.create () in
  on_dispose (fun () -> Phys.dispose phys);
  let aspace = Aspace.create phys in
  if format then Store.format dev;
  let k = Msnap.init ~store:(Store.mount dev) in
  Msnap.attach k aspace;
  k

let db_op tables buf = function
  | Put (t, key, value) -> Db.put tables.(t) ~key ~value
  | Get (t, key) -> (
    match Db.get tables.(t) key with
    | Some v ->
      Buffer.add_string buf "v:";
      Buffer.add_string buf v;
      Buffer.add_char buf '\n'
    | None -> Buffer.add_string buf "-\n")
  | Del (t, key) -> Buffer.add_string buf (if Db.delete tables.(t) key then "d:1\n" else "d:0\n")
  | Write _ | Read _ -> invalid_arg "region op in a database script"

let open_db backend =
  let db = Db.open_db (if !tracing then instrument_backend backend else backend) in
  on_dispose (fun () -> Pager.dispose (Db.pager db));
  db

(* Write blocks run in one transaction each, read-only blocks and the
   verification reads outside any. *)
let sqlite_machine script db ~recover =
  let tables = Array.of_list (List.map (Db.create_table db) script.tables) in
  let txn ops buf = Db.with_write_txn db (fun () -> Array.iter (db_op tables buf) ops) in
  let round b buf =
    span app (fun () -> if b.txn then txn b.ops buf else Array.iter (db_op tables buf) b.ops)
  in
  let scratch = Buffer.create 64 in
  List.iter (fun ops -> txn ops scratch) script.preload;
  { round;
    recover =
      (fun () ->
        let db2 = recover () in
        let tables2 =
          Array.of_list (List.map (fun n -> Option.get (Db.table db2 n)) script.tables)
        in
        fun ops buf -> Array.iter (db_op tables2 buf) ops) }

let db_name = "bench.db"

let sqlite_msnap script =
  let dev = mk_dev () in
  let open_msnap_db k =
    open_db (Backend_msnap.backend (Backend_msnap.create k ~db_name ~max_pages:65536))
  in
  sqlite_machine script (open_msnap_db (boot_msnap dev ~format:true))
    ~recover:(fun () ->
      crash dev;
      open_msnap_db (boot_msnap dev ~format:false))

let sqlite_wal script =
  let dev = mk_dev () in
  let open_wal_db fs be =
    on_dispose (fun () -> Fs.dispose fs);
    on_dispose (fun () -> Backend_wal.dispose be);
    open_db (Backend_wal.backend be)
  in
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  (* The SQLite experiments' cold-checkpoint cache size. *)
  Fs.set_cache_capacity fs 128;
  sqlite_machine script (open_wal_db fs (Backend_wal.create fs ~db_name ()))
    ~recover:(fun () ->
      (* FFS snapshots its metadata only at [sync_meta]; without one, a
         journal ring that wrapped since mkfs cannot be replayed. *)
      Fs.sync_meta fs;
      crash dev;
      let fs2 = Fs.mount dev ~kind:Fs.Ffs in
      open_wal_db fs2 (Backend_wal.recover fs2 ~db_name ()))

let region_ops ~write ~read ops buf =
  Array.iter
    (function
      | Write (off, b) -> span app (fun () -> write off b)
      | Read (off, len) -> Buffer.add_bytes buf (span app (fun () -> read off len))
      | Put _ | Get _ | Del _ -> invalid_arg "database op in a region script")
    ops

(* A region stack: [open_region] boots (or, after a crash, recovers) a
   machine and returns its write, read and persist calls. Every block
   ends with one persist, so each transaction is one checkpoint. *)
let region_machine script dev open_region =
  let write, read, checkpoint = open_region ~format:true in
  let persist_ops ops buf =
    region_ops ~write ~read ops buf;
    incr persist_calls;
    span persist checkpoint
  in
  let scratch = Buffer.create 64 in
  List.iter (fun ops -> persist_ops ops scratch) script.preload;
  { round = (fun b buf -> persist_ops b.ops buf);
    recover =
      (fun () ->
        crash dev;
        let _, read2, _ = open_region ~format:false in
        region_ops ~write:(fun _ _ -> invalid_arg "write during verification") ~read:read2) }

let region_len script = script.region_pages * 4096

let region_msnap script =
  let dev = mk_dev () in
  let len = region_len script in
  region_machine script dev (fun ~format ->
      let k = boot_msnap dev ~format in
      let md = Msnap.open_region k ~name:"r" ~len () in
      ( (fun off b -> Msnap.write k md ~off b),
        (fun off len -> Msnap.read k md ~off ~len),
        fun () -> ignore (Msnap.persist k ~region:md ()) ))

(* Aurora maps regions at a caller-chosen fixed address. *)
let aurora_va = 0x5000_0000_0000

let region_aurora script =
  let dev = mk_dev () in
  let len = region_len script in
  region_machine script dev (fun ~format ->
      let phys = Phys.create () in
      on_dispose (fun () -> Phys.dispose phys);
      let aspace = Aspace.create phys in
      if format then Store.format dev;
      let k = Aurora.Kernel.create ~aspace ~store:(Store.mount dev) () in
      Aurora.Kernel.register_thread k;
      let r = Aurora.Region.create k ~name:"r" ~va:aurora_va ~len in
      ( (fun off b -> Aurora.Region.write r ~off b),
        (fun off len -> Aurora.Region.read r ~off ~len),
        fun () -> Aurora.Region.checkpoint r ))

let stacks =
  [ ("sqlite_msnap", sqlite_msnap);
    ("sqlite_wal", sqlite_wal);
    ("region_msnap", region_msnap);
    ("region_aurora", region_aurora) ]

(* --- passes --- *)

let layer_total = Array.make 4 0
let counts = Hashtbl.create 8

let count name n =
  Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let digest_hex buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* One transaction, measured. In TRACE=1 runs the layer split and the
   counts cover exactly the transaction's own window. *)
let measure_round m b buf =
  let c0 = !dev_cmds and b0 = !dev_write_bytes and p0 = !persist_calls in
  let mi0, _, ma0 = if !tracing then Gc.counters () else (0., 0., 0.) in
  if !tracing then begin
    charge ();
    Array.fill self_ns 0 4 0
  end;
  let h0 = now_ns () in
  m.round b buf;
  let host = now_ns () - h0 in
  if !tracing then begin
    charge ();
    Array.iteri (fun l ns -> layer_total.(l) <- layer_total.(l) + ns) self_ns;
    let mi1, _, ma1 = Gc.counters () in
    count "minor_words" (int_of_float (mi1 -. mi0));
    count "major_words" (int_of_float (ma1 -. ma0));
    count "dev_cmds" (!dev_cmds - c0);
    count "dev_write_bytes" (!dev_write_bytes - b0);
    count "persist_calls" (!persist_calls - p0)
  end;
  host

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let run_pass i build script =
  let nrounds = Array.length script.rounds in
  let host = Array.make nrounds 0 and sim = ref 0 in
  let setup_ns, rounds_digest, verify_digest =
    Sched.run (fun () ->
        let t0 = now_ns () in
        let m = build script in
        let setup_ns = now_ns () - t0 in
        let buf = Buffer.create 4096 in
        let digests = Buffer.create (32 * nrounds) in
        Array.iteri
          (fun j b ->
            Buffer.clear buf;
            let s0 = Sched.now () in
            host.(j) <- measure_round m b buf;
            sim := !sim + (Sched.now () - s0);
            Buffer.add_string digests (digest_hex buf))
          script.rounds;
        Buffer.clear buf;
        m.recover () script.verify buf;
        (setup_ns, digest_hex digests, digest_hex buf))
  in
  List.iter (fun d -> d ()) !disposals;
  disposals := [];
  let refs = List.init ref_samples (fun _ -> string_of_int (reference ())) in
  let total = Array.fold_left ( + ) 0 host in
  Array.sort compare host;
  Printf.printf "pass %d %d %s %s %d %d %d %d %s\n" i setup_ns rounds_digest verify_digest
    (quantile host 0.5) (quantile host 0.99) total !sim (String.concat " " refs)

let () =
  match Sys.argv with
  | [| _; path; seconds; trace |] ->
    let script = parse path in
    let build =
      match List.assoc_opt script.stack_name stacks with
      | Some b -> b
      | None -> failwith ("unknown stack " ^ script.stack_name)
    in
    tracing := trace = "1";
    let budget_ns = int_of_float (float_of_string seconds *. 1e9) in
    run_pass 0 build script;
    Array.fill layer_total 0 4 0;
    Hashtbl.reset counts;
    let start = now_ns () in
    let i = ref 1 in
    while !i <= 3 || now_ns () - start < budget_ns do
      run_pass !i build script;
      incr i
    done;
    if !tracing then begin
      Array.iteri (fun l ns -> Printf.printf "layer %s %d\n" layer_names.(l) ns) layer_total;
      Hashtbl.iter (Printf.printf "count %s %d\n") counts
    end
  | _ ->
    prerr_endline "usage: driver.exe SCRIPT SECONDS TRACE";
    exit 2
