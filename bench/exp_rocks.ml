(* RocksDB case study (§7.2): Table 1 (CPU breakdown of the baseline) and
   Table 9 (MixGraph throughput/latency across memsnap / WAL / Aurora). *)

open Env
module Rocks = Msnap_rocks.Rocks
module Mixgraph = Msnap_workloads.Workloads.Mixgraph

let nkeys = 8_192
let prefill = 4_096
let value_size = 100
let threads = 12

(* The whole keyspace is bounded, so the "%020d" keys are a precomputed
   table (shared across cells/domains: immutable strings) and the mix
   loop never formats. *)
let key_table = Keyfmt.table nkeys (fun b i -> Keyfmt.dec b ~width:20 i)
let key_of i = Array.unsafe_get key_table i

(* Thread names, hoisted out of the spawn loop. *)
let thread_names =
  Keyfmt.table threads (fun b t ->
      Keyfmt.lit b "mix";
      Keyfmt.dec b ~width:0 t)

let mk_db backend =
  let config =
    { Rocks.memtable_flush_bytes = Size.mib 1; region_pages = 3 * nkeys }
  in
  match backend with
  | `Baseline ->
    let _, fs = mk_fs Fs.Ffs in
    Rocks.open_db ~config (Rocks.Baseline fs) ~name:"mix"
  | `Memsnap ->
    let _, k = mk_msnap () in
    Rocks.open_db ~config (Rocks.Memsnap k) ~name:"mix"
  | `Aurora ->
    let k = mk_aurora () in
    Aurora.Kernel.register_thread k;
    Rocks.open_db ~config (Rocks.Aurora k) ~name:"mix"

let prefill_db db =
  let rng = Rng.create 17 in
  let i = ref 0 in
  while !i < prefill do
    let n = min 64 (prefill - !i) in
    Rocks.put_batch db
      (List.init n (fun j ->
           (key_of (!i + j), Msnap_util.Rng.string rng value_size)));
    i := !i + n
  done

type result = {
  kops : float;
  avg_ns : int;
  p99_ns : int;
  wall_s : float;
  cpu : (string * float) list;
  calls : (string * float * int) list;
}

let run_mixgraph backend ~ops =
  Sched.run (fun () ->
      let db = mk_db backend in
      prefill_db db;
      let wl = Mixgraph.create ~value_size ~nkeys () in
      let hist = Histogram.create () in
      let t0 = Sched.now () in
      let per_thread = ops / threads in
      let ts =
        List.init threads (fun t ->
            Sched.spawn ~name:(Array.unsafe_get thread_names t) (fun () ->
                let rng = Rng.create (1000 + t) in
                for _ = 1 to per_thread do
                  let s = Sched.now () in
                  (match Mixgraph.next wl rng with
                  | Mixgraph.Get k -> ignore (Rocks.get db (key_of k))
                  | Mixgraph.Put (k, v) -> Rocks.put db ~key:(key_of k) ~value:v
                  | Mixgraph.Seek (k, n) -> ignore (Rocks.seek db (key_of k) ~n));
                  Histogram.add hist (Sched.now () - s)
                done))
      in
      List.iter Sched.join ts;
      let wall = Sched.now () - t0 in
      {
        kops = float_of_int ops /. 1e3 /. (float_of_int wall /. 1e9);
        avg_ns = int_of_float (Histogram.mean hist);
        p99_ns = Histogram.percentile hist 99.0;
        wall_s = float_of_int wall /. 1e9;
        cpu = cpu_percent (Sched.account_report ());
        calls =
          List.map metric_row
            [ Probe.db_memsnap; Probe.db_fsync; Probe.db_write;
              Probe.db_checkpoint ];
      })

let ops = 24_000

(* One MixGraph run per backend: Table 1 is the baseline run that Table
   9 also quotes, simulated once. *)
let mixgraph = shared (fun backend -> run_mixgraph backend ~ops)

let table1 () =
  section "Table 1: baseline RocksDB CPU breakdown (MixGraph)";
  let r = force (mixgraph `Baseline) in
  let t = Tbl.create ~title:"share of CPU time" ~headers:[ "Task"; "% time" ] in
  let show name label =
    match List.assoc_opt name r.cpu with
    | Some v -> Tbl.row t [ label; Tbl.pct v ]
    | None -> ()
  in
  show "user" "Tx memory + other userspace";
  show "log" "Log (WAL append + serialization)";
  show "fsync" "fsync";
  show "write" "write syscalls";
  show "read" "read syscalls";
  show "page faults" "page faults";
  Tbl.note t "paper: only 18.3% of time is the in-memory transaction; ~40% of total is persistence";
  print_table t

let table9 () =
  section "Table 9: RocksDB MixGraph comparison";
  (* The three MixGraph runs are independent simulations: one cell each,
     forced in the serial order (memsnap, baseline, Aurora). *)
  let c_ms = mixgraph `Memsnap in
  let c_base = mixgraph `Baseline in
  let c_au = mixgraph `Aurora in
  let ms = force c_ms in
  let base = force c_base in
  let au = force c_au in
  let t =
    Tbl.create ~title:(Printf.sprintf "%d ops, %d threads" ops threads)
      ~headers:[ "Configuration"; "Kops"; "Avg (us)"; "99th (us)" ]
  in
  let row label r =
    Tbl.row t
      [ label; Printf.sprintf "%.1f" r.kops; Tbl.us r.avg_ns; Tbl.us_short r.p99_ns ]
  in
  row "memsnap" ms;
  row "Baseline+WAL" base;
  row "Aurora" au;
  Tbl.note t "paper: memsnap 420.7 Kops / 138.9us avg; baseline 388.0 / 162.7; aurora 91.8 / 751.9";
  print_table t;
  let t2 =
    Tbl.create ~title:"persistence-related calls"
      ~headers:[ "System call"; "Latency (us)"; "Total count" ]
  in
  let call r name label =
    match List.find_opt (fun (n, _, _) -> n = name) r.calls with
    | Some (_, mean, count) when count > 0 ->
      Tbl.row t2 [ label; Tbl.us (int_of_float mean); Tbl.kcount count ]
    | _ -> ()
  in
  call ms "memsnap" "memsnap (msnap_persist)";
  call base "fsync" "fsync (baseline)";
  call base "write" "write (baseline)";
  call au "checkpoint" "checkpoint (Aurora)";
  Tbl.note t2 "paper: memsnap 51.4us/208K, fsync 63.1us/190K, write 19.4us/191K, checkpoint 204us/89K";
  print_table t2
