(* SQLite case study (§7.1): Table 7 (syscall counts/latency), Table 8
   (CPU breakdown + wall clock), Fig. 4 (txn latency vs size), Fig. 5
   (TATP throughput vs database size). *)

open Env
module Db = Msnap_sqlite.Db
module Backend_wal = Msnap_sqlite.Backend_wal
module Backend_msnap = Msnap_sqlite.Backend_msnap
module Dbbench = Msnap_workloads.Workloads.Dbbench
module Tatp = Msnap_workloads.Workloads.Tatp

type backend = Wal | Ms

(* dbbench draws keys below [nkeys] and TATP subscribers scale up to the
   same bound, so every [Db.key_of_int] the drivers ever pass is one of
   these precomputed strings (immutable — shared across cells/domains).
   Out-of-range keys fall back to the codec. *)
let max_key = 100_000
let key_table = Array.init max_key Db.key_of_int

let key_of_int i =
  if i >= 0 && i < max_key then Array.unsafe_get key_table i
  else Db.key_of_int i

(* Both paths register end-of-run disposal for the pager's page cache
   (one pooled 4 KiB buffer per page ever touched — the dominant pooled
   working set of the SQLite experiments) so the next run on this
   domain reuses them instead of allocating fresh. *)
let open_db backend =
  match backend with
  | Wal ->
    let _, fs = mk_fs Fs.Ffs in
    (* The paper's database (1M keys) dwarfs the OS buffer cache; keep the
       same relationship at our scaled size so checkpoint IO stays cold. *)
    Fs.set_cache_capacity fs 128;
    let w = Backend_wal.create fs ~db_name:"bench.db" () in
    let db = Db.open_db (Backend_wal.backend w) in
    Sched.on_exit (fun () ->
        Msnap_sqlite.Pager.dispose (Db.pager db);
        Backend_wal.dispose w);
    db
  | Ms ->
    let _, k = mk_msnap () in
    let db =
      Db.open_db
        (Backend_msnap.backend
           (Backend_msnap.create k ~db_name:"bench.db" ~max_pages:65536))
    in
    Sched.on_exit (fun () -> Msnap_sqlite.Pager.dispose (Db.pager db));
    db

type dbbench_result = {
  wall_ns : int;
  txn_hist : Histogram.t;
  calls : (string * float * int) list; (* name, mean ns, count *)
  cpu : (string * float) list;
}

let run_dbbench ~backend ~pattern ~txn_bytes ~total_writes () =
  Sched.run (fun () ->
      let db = open_db backend in
      let tbl = Db.create_table db "kv" in
      let wl = Dbbench.create ~nkeys:max_key ~txn_bytes ~pattern () in
      let rng = Rng.create 11 in
      let hist = Histogram.create () in
      let written = ref 0 in
      let t0 = Sched.now () in
      while !written < total_writes do
        let pairs = Dbbench.next_txn wl rng in
        let s = Sched.now () in
        Db.with_write_txn db (fun () ->
            List.iter
              (fun (k, v) -> Db.put tbl ~key:(key_of_int k) ~value:v)
              pairs);
        Histogram.add hist (Sched.now () - s);
        written := !written + List.length pairs
      done;
      {
        wall_ns = Sched.now () - t0;
        txn_hist = hist;
        calls =
          List.map metric_row
            [ Probe.db_memsnap; Probe.db_fsync; Probe.db_write; Probe.db_read ];
        cpu = cpu_percent (Sched.account_report ());
      })

let total_writes = 30_000

(* Every dbbench run of Table 7, Table 8 and Fig. 4, keyed by (backend,
   pattern, txn KiB): Table 8's runs are all in Table 7, and Table 7's
   in Fig. 4. *)
let dbbench =
  shared (fun (backend, pattern, kib) ->
      run_dbbench ~backend ~pattern ~txn_bytes:(Size.kib kib) ~total_writes ())

let table7 () =
  section "Table 7: persistence-related calls, dbbench (SQLite)";
  let t =
    Tbl.create
      ~title:(Printf.sprintf "per-call latency / total calls (%d KV writes)" total_writes)
      ~headers:
        [ "Txn size"; "memsnap us"; "ops"; "fsync us"; "ops"; "write us";
          "ops"; "read us"; "ops" ]
  in
  (* Every run is requested grid-first so the pool overlaps them; forced
     in the same order the serial loop ran. *)
  let runs pattern =
    List.map
      (fun kib -> (kib, dbbench (Ms, pattern, kib), dbbench (Wal, pattern, kib)))
      [ 4; 64; 1024 ]
  in
  let random = runs `Random in
  let seq = runs `Seq in
  let emit cells label =
    Tbl.rule t;
    Tbl.row t [ label ];
    List.iter
      (fun (txn_kib, ms, wal) ->
        let ms = force ms in
        let wal = force wal in
        let find r name =
          match List.find_opt (fun (n, _, _) -> n = name) r.calls with
          | Some (_, mean, count) -> (mean, count)
          | None -> (0.0, 0)
        in
        let m_mean, m_count = find ms "memsnap" in
        let f_mean, f_count = find wal "fsync" in
        let w_mean, w_count = find wal "write" in
        let r_mean, r_count = find wal "read" in
        Tbl.row t
          [
            Size.pp (Size.kib txn_kib);
            Tbl.us (int_of_float m_mean); Tbl.kcount m_count;
            Tbl.us (int_of_float f_mean); Tbl.kcount f_count;
            Tbl.us (int_of_float w_mean); Tbl.kcount w_count;
            Tbl.us (int_of_float r_mean); Tbl.kcount r_count;
          ])
      cells
  in
  emit random "Random IO";
  emit seq "Sequential IO";
  Tbl.note t "paper 4K random: memsnap 152us/63K, fsync 1137us/67K, write 6.7us/7584K, read 2.9us/2847K";
  print_table t

let table8 () =
  section "Table 8: CPU usage and dbbench wall time (SQLite)";
  let t =
    Tbl.create ~title:"CPU breakdown (4 KiB transactions)"
      ~headers:[ "Bucket"; "baseline %"; "memsnap %" ]
  in
  let runs pattern = (dbbench (Wal, pattern, 4), dbbench (Ms, pattern, 4)) in
  let random = runs `Random in
  let seq = runs `Seq in
  let emit (wal, ms) label =
    let wal = force wal in
    let ms = force ms in
    let pct r name =
      match List.assoc_opt name r.cpu with Some v -> Tbl.pct v | None -> "-"
    in
    Tbl.rule t;
    Tbl.row t [ label ];
    Tbl.row t [ "userspace"; pct wal "user"; pct ms "user" ];
    Tbl.row t [ "fsync"; pct wal "fsync"; pct ms "fsync" ];
    Tbl.row t [ "write"; pct wal "write"; pct ms "write" ];
    Tbl.row t [ "read"; pct wal "read"; pct ms "read" ];
    Tbl.row t [ "memsnap"; pct wal "memsnap"; pct ms "memsnap" ];
    Tbl.row t [ "memsnap flush"; pct wal "memsnap flush"; pct ms "memsnap flush" ];
    Tbl.row t [ "page faults"; pct wal "page faults"; pct ms "page faults" ];
    Tbl.row t
      [ "wall clock";
        Printf.sprintf "%.2f s" (float_of_int wal.wall_ns /. 1e9);
        Printf.sprintf "%.2f s" (float_of_int ms.wall_ns /. 1e9) ]
  in
  emit random "Random IO";
  emit seq "Sequential IO";
  Tbl.note t "paper: memsnap 2x-5x faster wall clock; baseline CPU dominated by write+fsync";
  print_table t

let fig4 () =
  section "Figure 4: transaction latency vs size (SQLite dbbench)";
  let t =
    Tbl.create ~title:"per-transaction latency (us)"
      ~headers:
        [ "Txn size"; "pattern"; "baseline avg"; "baseline p99";
          "memsnap avg"; "memsnap p99" ]
  in
  let rows =
    List.concat_map
      (fun pattern ->
        List.map
          (fun txn_kib ->
            ( pattern, txn_kib,
              dbbench (Wal, pattern, txn_kib),
              dbbench (Ms, pattern, txn_kib) ))
          [ 4; 16; 64; 256; 1024 ])
      [ `Random; `Seq ]
  in
  List.iter
    (fun (pattern, txn_kib, wal, ms) ->
      let wal = force wal in
      let ms = force ms in
      Tbl.row t
        [
          Size.pp (Size.kib txn_kib);
          (match pattern with `Random -> "random" | `Seq -> "seq");
          Tbl.us_short (int_of_float (Histogram.mean wal.txn_hist));
          Tbl.us_short (Histogram.percentile wal.txn_hist 99.0);
          Tbl.us_short (int_of_float (Histogram.mean ms.txn_hist));
          Tbl.us_short (Histogram.percentile ms.txn_hist 99.0);
        ])
    rows;
  Tbl.note t "paper: memsnap ~4x lower latency, low variance; baseline skewed by checkpoints";
  print_table t

(* --- TATP (Fig. 5) --- *)

(* Row payloads hoisted out of the op loop: the filler constants are
   interned once and the bounded subscriber rows render at most once
   per domain ("sub%08d:<80 x 's'>", byte-identical to the sprintf). *)
let sub_filler = String.make 80 's'

let subscriber_row =
  Intern.memo ~max:max_key (fun s ->
      let b = Keyfmt.scratch () in
      Keyfmt.lit b "sub";
      Keyfmt.dec b ~width:8 s;
      Keyfmt.char b ':';
      Keyfmt.lit b sub_filler;
      Keyfmt.str b)

let v_access = String.make 40 'a'
let v_facility = String.make 40 'f'
let v_facility' = String.make 40 'F'
let v_forwarding = String.make 24 'c'

let tatp_setup db ~subscribers =
  let sub = Db.create_table db "subscriber" in
  let ai = Db.create_table db "access_info" in
  let sf = Db.create_table db "special_facility" in
  let cf = Db.create_table db "call_forwarding" in
  let batch = 256 in
  let i = ref 0 in
  while !i < subscribers do
    let hi = min (subscribers - 1) (!i + batch - 1) in
    Db.with_write_txn db (fun () ->
        for s = !i to hi do
          Db.put sub ~key:(key_of_int s) ~value:(subscriber_row s);
          Db.put ai ~key:(key_of_int s) ~value:v_access;
          Db.put sf ~key:(key_of_int s) ~value:v_facility
        done);
    i := hi + 1
  done;
  (sub, ai, sf, cf)

let tatp_run db (sub, ai, sf, cf) ~subscribers ~ops =
  let rng = Rng.create 13 in
  let t0 = Sched.now () in
  for _ = 1 to ops do
    match Tatp.next ~subscribers rng with
    | Tatp.Get_subscriber_data s -> ignore (Db.get sub (key_of_int s))
    | Tatp.Get_new_destination s -> ignore (Db.get cf (key_of_int s))
    | Tatp.Get_access_data s -> ignore (Db.get ai (key_of_int s))
    | Tatp.Update_subscriber_data s ->
      Db.with_write_txn db (fun () ->
          Db.put sf ~key:(key_of_int s) ~value:v_facility')
    | Tatp.Update_location s ->
      Db.with_write_txn db (fun () ->
          Db.put sub ~key:(key_of_int s) ~value:(subscriber_row s))
    | Tatp.Insert_call_forwarding s ->
      Db.with_write_txn db (fun () ->
          Db.put cf ~key:(key_of_int s) ~value:v_forwarding)
    | Tatp.Delete_call_forwarding s ->
      Db.with_write_txn db (fun () -> ignore (Db.delete cf (key_of_int s)))
  done;
  float_of_int ops /. (float_of_int (Sched.now () - t0) /. 1e9)

let fig5 () =
  section "Figure 5: TATP throughput vs database size (SQLite)";
  let t =
    Tbl.create ~title:"TATP transactions/second"
      ~headers:[ "Records"; "baseline tps"; "memsnap tps"; "memsnap/baseline" ]
  in
  let ops = 8_000 in
  let rows =
    List.map
      (fun subscribers ->
        let run backend =
          cell (fun () ->
              Sched.run (fun () ->
                  let db = open_db backend in
                  let tables = tatp_setup db ~subscribers in
                  tatp_run db tables ~subscribers ~ops))
        in
        let base = run Wal in
        let ms = run Ms in
        (subscribers, base, ms))
      [ 1_000; 10_000; 100_000 ]
  in
  List.iter
    (fun (subscribers, base, ms) ->
      let base = force base in
      let ms = force ms in
      Tbl.row t
        [
          string_of_int subscribers;
          Printf.sprintf "%.0f" base;
          Printf.sprintf "%.0f" ms;
          Printf.sprintf "%.2fx" (ms /. base);
        ])
    rows;
  Tbl.note t "paper: baseline loses 63% of throughput from 1K to 1M records; memsnap only 23%";
  Tbl.note t "record counts scaled 1K-100K (paper 1K-1M) to fit the simulated machine";
  print_table t
