(* Determinism regression test: the same experiment program run twice in
   one process must produce identical simulated time, identical CPU
   accounting, and an identical rendered table. This is what proves the
   scheduler/VM host-side fast paths (inline clock advance, cached
   accounting cells, TLB Ptloc reuse, binary-search mapping lookup,
   sparse disk media) change nothing observable in simulation — and that
   no cross-run mutable state (engine, metrics) leaks between runs. *)

module Sched = Msnap_sim.Sched
module Metrics = Msnap_sim.Metrics
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Histogram = Msnap_util.Histogram
module Rng = Msnap_util.Rng
module Tbl = Msnap_util.Tbl
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora
open Testkit

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let page = 4096

let dirty_random_pages k md rng ~region_pages ~pages =
  let chosen = Hashtbl.create pages in
  while Hashtbl.length chosen < pages do
    Hashtbl.replace chosen (Rng.int rng region_pages) ()
  done;
  Hashtbl.iter
    (fun p () -> Msnap.write k md ~off:(p * page) (Bytes.make 64 'd'))
    chosen

type trace = {
  sim_ns : int list; (* per-cell simulated results *)
  accounts : (string * (string * int) list) list; (* per-run CPU reports *)
  metrics : (string * run_metrics) list; (* per-run metric digests *)
  table_digest : string;
  crashes : (string * string) list; (* crash scenario -> recovery digest *)
}

(* What a run's [Metrics] hold, read inside that run: a digest of its
   counters and of the figures each histogram reports (a histogram bug
   moves these even when every counter matches), and how many
   histograms there were. *)
and run_metrics = string * int

let hist_figures () =
  List.filter_map
    (fun i ->
      let p = Probe.of_id i in
      match Metrics.hist p with
      | Some h when Metrics.samples p > 0 ->
        Some
          (Printf.sprintf "%s samples=%d mean=%.17g p50=%d p99=%d max=%d"
             (Probe.name p) (Metrics.samples p) (Metrics.mean_ns p)
             (Histogram.percentile h 50.0) (Histogram.percentile h 99.0)
             (Histogram.max_value h))
      | _ -> None)
    (List.init (Probe.count ()) Fun.id)

let run_metrics () : run_metrics =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, n) -> Buffer.add_string b (Printf.sprintf "%s=%d;" name n))
    (Metrics.counters ());
  let hists = hist_figures () in
  List.iter (fun l -> Buffer.add_string b (l ^ ";")) hists;
  (Digest.to_hex (Digest.string (Buffer.contents b)), List.length hists)

(* One self-contained MemSnap persist measurement: mean persist latency
   over 3 dirtyings of [dirty_pages] random pages. Body of a [Sched.run];
   also used as a parallel-cell body below. *)
let ms_measure ~region_pages ~dirty_pages () =
  let& dev = testbed ~mib:64 in
  let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
  let md = Msnap.open_region k ~name:"bench" ~len:(region_pages * page) () in
  for i = 0 to region_pages - 1 do
    Msnap.write k md ~off:(i * page) (Bytes.make 16 'p')
  done;
  ignore (Msnap.persist k ~region:md ());
  let rng = Rng.create 7 in
  let total = ref 0 in
  for _ = 1 to 3 do
    dirty_random_pages k md rng ~region_pages ~pages:dirty_pages;
    let t0 = Sched.now () in
    ignore (Msnap.persist k ~region:md ());
    total := !total + (Sched.now () - t0)
  done;
  (!total / 3, Sched.account_report (), run_metrics ())

(* The Aurora counterpart: time 3 region checkpoints. *)
let au_measure ~region_pages ~dirty_pages () =
  let& dev = testbed ~mib:64 in
  let& k = (Aurora.Kernel.boot ~format:true dev, Aurora.Kernel.dispose) in
  Aurora.Kernel.register_thread k;
  let r =
    Aurora.Region.create k ~name:"bench" ~va:0x5000_0000_0000
      ~len:(region_pages * page)
  in
  for i = 0 to region_pages - 1 do
    Aurora.Region.write r ~off:(i * page) (Bytes.make 16 'p')
  done;
  Aurora.Region.checkpoint r;
  let rng = Rng.create 8 in
  let t0 = Sched.now () in
  for _ = 1 to 3 do
    let chosen = Hashtbl.create dirty_pages in
    while Hashtbl.length chosen < dirty_pages do
      Hashtbl.replace chosen (Rng.int rng region_pages) ()
    done;
    Hashtbl.iter
      (fun p () -> Aurora.Region.write r ~off:(p * page) (Bytes.make 64 'd'))
      chosen;
    Aurora.Region.checkpoint r
  done;
  (Sched.now () - t0, Sched.account_report (), run_metrics ())

(* A reduced fig3: sweep dirty-set sizes over MemSnap persist and Aurora
   region checkpoints, plus a multi-threaded MemSnap phase, recording
   everything observable. *)
let fig3_reduced () =
  let region_pages = 512 in
  let sim_ns = ref [] and accounts = ref [] and metrics = ref [] in
  let record name (v, report, m) =
    sim_ns := v :: !sim_ns;
    accounts := (name, report) :: !accounts;
    metrics := (name, m) :: !metrics
  in
  let t =
    Tbl.create ~title:"determinism sweep"
      ~headers:[ "dirty"; "memsnap"; "aurora" ]
  in
  List.iter
    (fun dirty_pages ->
      let ((ms, _, _) as ms_run) =
        Sched.run (fun () -> ms_measure ~region_pages ~dirty_pages ())
      in
      let ((au, _, _) as au_run) =
        Sched.run (fun () -> au_measure ~region_pages ~dirty_pages ())
      in
      record (Printf.sprintf "memsnap/%d" dirty_pages) ms_run;
      record (Printf.sprintf "aurora/%d" dirty_pages) au_run;
      Tbl.row t
        [ string_of_int dirty_pages; Tbl.us ms; Tbl.us au ])
    [ 1; 4; 16 ];
  (* Multi-threaded phase: concurrent writers sharing one region, with
     persists racing the dirtying stores. *)
  let mt_run =
    Sched.run (fun () ->
        let& dev = testbed ~mib:64 in
        let& k = (Msnap.boot ~format:true dev, Msnap.dispose) in
        let md =
          Msnap.open_region k ~name:"mt" ~len:(region_pages * page) ()
        in
        let ts =
          List.init 4 (fun i ->
              Sched.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
                  let rng = Rng.create (100 + i) in
                  for _ = 1 to 20 do
                    let p = Rng.int rng region_pages in
                    Msnap.write k md ~off:(p * page) (Bytes.make 32 'm');
                    Sched.delay (Rng.int rng 2000);
                    Metrics.incr
                      (Msnap_sim.Probe.make Msnap_sim.Probe.Host "mt.writes")
                  done))
        in
        ignore (Msnap.persist k ~region:md ());
        List.iter Sched.join ts;
        ignore (Msnap.persist k ~region:md ());
        (Sched.now (), Sched.account_report (), run_metrics ()))
  in
  record "mt" mt_run;
  (* Crash-injection phase: power-fail the device while a μCheckpoint's
     zero-copy commit (scatter/gather straight over the page frames) is
     in flight, remount, and digest everything recoverable. The tear
     happens while writer threads keep dirtying the region, so this
     exercises the ownership rule end to end: checkpoint-in-progress COW
     must keep the in-flight frames stable, and the torn sector prefix
     must be identical on both runs. Nothing here is disposed: buffer
     ownership may be mid-transfer when the power goes. *)
  let crashes =
    List.map
      (fun crash_delay ->
        let region_pages = 128 in
        let sim_end, digest, m =
          Sched.run (fun () ->
              let dev = Device.testbed ~mib:64 in
              let k = Msnap.boot ~format:true dev in
              let md =
                Msnap.open_region k ~name:"crash" ~len:(region_pages * page) ()
              in
              for i = 0 to region_pages - 1 do
                Msnap.write k md ~off:(i * page) (Bytes.make 32 'a')
              done;
              ignore (Msnap.persist k ~region:md ());
              let persister =
                Sched.spawn ~name:"persister" (fun () ->
                    try
                      let rng = Rng.create 42 in
                      for _ = 1 to 64 do
                        let p = Rng.int rng region_pages in
                        Msnap.write k md ~off:(p * page) (Bytes.make 64 'z')
                      done;
                      ignore (Msnap.persist k ~region:md ())
                    with Disk.Powered_off -> ())
              in
              let racer =
                Sched.spawn ~name:"racer" (fun () ->
                    try
                      let rng = Rng.create 43 in
                      for _ = 1 to 64 do
                        let p = Rng.int rng region_pages in
                        Msnap.write k md ~off:(p * page) (Bytes.make 48 'r');
                        Sched.delay (Rng.int rng 5_000)
                      done
                    with Disk.Powered_off -> ())
              in
              Sched.delay crash_delay;
              Device.fail_power dev ~torn_seed:crash_delay;
              Sched.join persister;
              Sched.join racer;
              Device.restore_power dev;
              let store2 = Store.mount dev in
              let buf = Buffer.create (region_pages * page) in
              (match Store.open_obj store2 ~name:"crash" with
              | None -> Buffer.add_string buf "no-object"
              | Some o ->
                Buffer.add_string buf (string_of_int (Store.epoch o));
                for i = 0 to region_pages - 1 do
                  match Store.read_block store2 o i with
                  | Some b -> Buffer.add_bytes buf b
                  | None -> Buffer.add_string buf "hole"
                done);
              ( Sched.now (),
                Digest.to_hex (Digest.string (Buffer.contents buf)),
                run_metrics () ))
        in
        let name = Printf.sprintf "crash@%dns" crash_delay in
        metrics := (name, m) :: !metrics;
        (name, Printf.sprintf "%s/end=%d" digest sim_end))
      [ 30_000; 120_000; 400_000 ]
  in
  {
    sim_ns = List.rev !sim_ns;
    accounts = List.rev !accounts;
    metrics = List.rev !metrics;
    table_digest = Digest.to_hex (Digest.string (Tbl.render t));
    crashes;
  }

(* Everything observable must be byte-identical whether the run was
   traced or not: tracing is host-side observability and must never
   perturb simulated values ("host work may change, simulated work may
   not"). Run once untraced and once under a verbose trace. *)
let test_identical_traced_untraced () =
  let a = fig3_reduced () in
  let b, d = Trace.collect ~verbose:true fig3_reduced in
  Alcotest.(check bool) "trace actually recorded" true (d.Trace.d_count > 0);
  Alcotest.(check (list int)) "sim-time totals" a.sim_ns b.sim_ns;
  List.iter2
    (fun (na, ra) (nb, rb) ->
      Alcotest.(check string) "phase name" na nb;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "account report (%s)" na)
        ra rb)
    a.accounts b.accounts;
  Alcotest.(check string) "table digest" a.table_digest b.table_digest;
  Alcotest.(check (list (pair string (pair string int))))
    "per-run metrics" a.metrics b.metrics;
  Alcotest.(check (list (pair string string)))
    "crash-injection recovery digests" a.crashes b.crashes

let test_identical_twice () =
  let a = fig3_reduced () in
  let b = fig3_reduced () in
  Alcotest.(check (list int)) "sim-time totals" a.sim_ns b.sim_ns;
  List.iter2
    (fun (na, ra) (nb, rb) ->
      Alcotest.(check string) "phase name" na nb;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "account report (%s)" na)
        ra rb)
    a.accounts b.accounts;
  Alcotest.(check string) "table digest" a.table_digest b.table_digest;
  Alcotest.(check (list (pair string (pair string int))))
    "per-run metrics" a.metrics b.metrics;
  Alcotest.(check (list (pair string string)))
    "crash-injection recovery digests" a.crashes b.crashes

(* --- cell-level parallelism ---

   The same sweep expressed as independent simulation cells on the
   domain task pool. The contract under test: how many pool workers
   exist (0 = serial inline execution, the reference) is pure host
   policy — every simulated value, CPU account, per-run metric, and
   merged trace byte must be identical at any worker count, traced or
   not. *)

module Cell = Msnap_sim.Cell
module Taskpool = Msnap_util.Taskpool

type cellrun = {
  c_vals : (string * int) list; (* cell label -> simulated ns *)
  c_accounts : (string * (string * int) list) list;
  c_metrics : (string * run_metrics) list; (* read inside each body's run *)
  c_trace_events : int;
  c_trace_digest : string;
}

(* Digest everything a merged trace exposes: the exact per-probe
   summary plus every event's probe/timestamp/duration/tid/flow/arg
   columns, in buffer order. *)
let trace_digest d =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Trace.render_summary d);
  let addi v =
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ';'
  in
  Array.iter addi d.Trace.d_probe;
  Array.iter addi d.Trace.d_ts;
  Array.iter addi d.Trace.d_dur;
  Array.iter addi d.Trace.d_tid;
  Array.iter addi d.Trace.d_flow;
  Array.iter (fun k -> Buffer.add_string b k) d.Trace.d_ak;
  Array.iter addi d.Trace.d_av;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [cells:false] runs the same bodies in order on this domain, with no
   cell dump to splice: the reference the spliced recordings must equal. *)
let cell_run ?(cells = true) ~workers ~traced () =
  Taskpool.shutdown ();
  Taskpool.ensure_workers workers;
  let region_pages = 256 in
  let bodies =
    List.concat_map
      (fun dirty_pages ->
        [
          ( Printf.sprintf "memsnap/%d" dirty_pages,
            fun () ->
              Sched.run (fun () -> ms_measure ~region_pages ~dirty_pages ()) );
          ( Printf.sprintf "aurora/%d" dirty_pages,
            fun () ->
              Sched.run (fun () -> au_measure ~region_pages ~dirty_pages ()) );
        ])
      [ 1; 4; 16 ]
  in
  let run () =
    if not cells then List.map (fun (n, f) -> (n, f ())) bodies
    else begin
      let pend = List.map (fun (n, f) -> (n, Cell.submit f)) bodies in
      (* Force in submission order — the program order a serial run has. *)
      List.map (fun (n, p) -> (n, Cell.force p)) pend
    end
  in
  let forced, n_ev, td =
    if traced then
      let forced, d = Trace.collect ~verbose:true run in
      (forced, d.Trace.d_count, trace_digest d)
    else (run (), 0, "")
  in
  Taskpool.shutdown ();
  {
    c_vals = List.map (fun (n, (v, _, _)) -> (n, v)) forced;
    c_accounts = List.map (fun (n, (_, r, _)) -> (n, r)) forced;
    c_metrics = List.map (fun (n, (_, _, m)) -> (n, m)) forced;
    c_trace_events = n_ev;
    c_trace_digest = td;
  }

let check_cellrun name a b =
  Alcotest.(check (list (pair string int)))
    (name ^ ": simulated values") a.c_vals b.c_vals;
  List.iter2
    (fun (na, ra) (nb, rb) ->
      Alcotest.(check string) (name ^ ": cell label") na nb;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s: account report (%s)" name na)
        ra rb)
    a.c_accounts b.c_accounts;
  Alcotest.(check (list (pair string (pair string int))))
    (name ^ ": per-run metrics") a.c_metrics b.c_metrics;
  Alcotest.(check int) (name ^ ": trace events") a.c_trace_events
    b.c_trace_events;
  Alcotest.(check string)
    (name ^ ": trace digest") a.c_trace_digest b.c_trace_digest

let test_cells_parallel_identical () =
  let serial = cell_run ~workers:0 ~traced:false () in
  Alcotest.(check bool)
    "every memsnap cell recorded histograms" true
    (List.for_all
       (fun (n, (_, hists)) -> String.sub n 0 7 <> "memsnap" || hists > 0)
       serial.c_metrics);
  check_cellrun "serial vs no cells" (cell_run ~cells:false ~workers:0 ~traced:false ())
    serial;
  check_cellrun "1 worker vs serial" serial (cell_run ~workers:1 ~traced:false ());
  check_cellrun "3 workers vs serial" serial (cell_run ~workers:3 ~traced:false ())

let test_cells_traced_identical () =
  let serial = cell_run ~workers:0 ~traced:true () in
  Alcotest.(check bool)
    "trace actually recorded" true
    (serial.c_trace_events > 0);
  check_cellrun "3 workers vs serial (traced)" serial
    (cell_run ~workers:3 ~traced:true ());
  (* Tracing itself must not move a simulated value. *)
  let untraced = cell_run ~workers:0 ~traced:false () in
  Alcotest.(check (list (pair string int)))
    "traced vs untraced: simulated values" untraced.c_vals serial.c_vals;
  Alcotest.(check (list (pair string (pair string int))))
    "traced vs untraced: per-run metrics" untraced.c_metrics serial.c_metrics

let () =
  Alcotest.run "determinism"
    [
      ( "fig3-reduced",
        [
          Alcotest.test_case "identical across two in-process runs" `Quick
            test_identical_twice;
          Alcotest.test_case "identical with tracing on vs off" `Quick
            test_identical_traced_untraced;
        ] );
      ( "cells",
        [
          Alcotest.test_case "cell-parallel identical at any worker count"
            `Quick test_cells_parallel_identical;
          Alcotest.test_case "cell-parallel identical under tracing" `Quick
            test_cells_traced_identical;
        ] );
    ]
