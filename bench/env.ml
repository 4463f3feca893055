(* Shared machine builders and reporting helpers for the experiment
   harness. Every experiment runs on a fresh simulated machine: two
   striped NVMe devices (the paper's testbed layout), physical memory, one
   or more address spaces, and whichever persistence stack it measures. *)

module Sched = Msnap_sim.Sched
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Rng = Msnap_util.Rng
module Keyfmt = Msnap_util.Keyfmt
module Intern = Msnap_util.Intern
module Size = Msnap_util.Size
module Tbl = Msnap_util.Tbl
module Histogram = Msnap_util.Histogram
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora

(* Every builder registers the teardown of what it builds with the
   running simulation ([Sched.on_exit]): page frames, file-system cache
   blocks, radix node images and the media's chunks go back to
   [Msnap_util.Pool] as the run returns, so the next experiment on this
   domain reuses them instead of allocating fresh. Pooled memory lives
   in slabs outside the OCaml heap that nothing frees, so whatever a
   builder does not register is lost until exit. *)

let mk_dev () =
  let dev = Device.testbed ~mib:512 in
  Sched.on_exit (fun () -> Device.dispose dev);
  dev

let mk_fs kind =
  let dev = mk_dev () in
  let fs = Fs.mkfs dev ~kind in
  Sched.on_exit (fun () -> Fs.dispose fs);
  (dev, fs)

(* A machine with a MemSnap kernel: (device, kernel). *)
let mk_msnap () =
  let dev = mk_dev () in
  let k = Msnap.boot ~format:true dev in
  Sched.on_exit (fun () -> Msnap.dispose k);
  (dev, k)

(* A machine with an Aurora kernel. *)
let mk_aurora () =
  let k = Aurora.Kernel.boot ~format:true (mk_dev ()) in
  Sched.on_exit (fun () -> Aurora.Kernel.dispose k);
  k

(* Dirty [pages] distinct random 4 KiB pages of a MemSnap region. *)
let dirty_random_pages k md rng ~region_pages ~pages =
  let chosen = Hashtbl.create pages in
  while Hashtbl.length chosen < pages do
    Hashtbl.replace chosen (Rng.int rng region_pages) ()
  done;
  Hashtbl.iter
    (fun p () -> Msnap.write k md ~off:(p * 4096) (Bytes.make 64 'd'))
    chosen

(* Mean of [iters] timed runs of [f]. *)
let time_mean ~iters f =
  let total = ref 0 in
  for _ = 1 to iters do
    let t0 = Sched.now () in
    f ();
    total := !total + (Sched.now () - t0)
  done;
  !total / iters

(* Report CPU buckets as percentages of total charged CPU. *)
let cpu_percent report =
  let total = List.fold_left (fun a (_, v) -> a + v) 0 report in
  List.map
    (fun (name, v) ->
      (name, 100.0 *. float_of_int v /. float_of_int (max 1 total)))
    report

let metric_row p =
  (Probe.name p, Metrics.mean_ns p, Metrics.samples p)

(* --- output routing ---

   Experiments never print to stdout directly: everything goes through
   [emit] into the capture buffer of the experiment or cell running on
   this domain (see main.ml). The runner prints each experiment's buffer
   in experiment order, so `-j N` produces byte-identical stdout to a
   serial run. *)

let out_key : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let emit s =
  match !(Domain.DLS.get out_key) with
  | Some b -> Buffer.add_string b s
  | None -> invalid_arg "Env.emit: output outside an experiment"

let printf fmt = Printf.ksprintf emit fmt

let print_table t = emit (Tbl.render t ^ "\n")

(* Run [f ()] with all [emit] output (on this domain) captured in [buf]. *)
let captured buf f =
  let slot = Domain.DLS.get out_key in
  let saved = !slot in
  slot := Some buf;
  Fun.protect ~finally:(fun () -> slot := saved) f

let section title = printf "\n=== %s ===\n" title

(* --- host accounting frames ---

   Per-experiment wall/allocation/pool numbers in BENCH_sim.json must
   stay attributable to *that* experiment even though a domain awaiting
   its own cells helps run other tasks (its own cells, or another
   experiment's). A frame brackets a region of host work; closing it
   yields deltas exclusive of any frame nested inside it (a helped
   task opens its own frame), and records which cells were forced under
   it so the experiment can add exactly its own cells' costs back in —
   wherever those cells actually ran. *)

type hostm = {
  h_wall_s : float;
  h_minor : float;
  h_major : float;
  h_hits : int;
  h_misses : int;
  h_sched_ev : int; (* scheduler run-queue events executed *)
}

module Pool = Msnap_util.Pool

let zero =
  { h_wall_s = 0.0; h_minor = 0.0; h_major = 0.0; h_hits = 0; h_misses = 0;
    h_sched_ev = 0 }

(* Absolute counters now, both for this domain only, so frames measure
   only this domain's allocation no matter what other domains do
   concurrently. Minor words come from [Gc.minor_words], which adds the
   words allocated in the current minor heap: [Gc.counters]' minor count
   (OCaml 5.1) lags by up to a minor heap and picks up other domains'
   allocation, so it moved with GC timing. Major words are direct major
   allocations only: [Gc.counters]' major count also includes the words
   minor GCs promoted, which move with the minor-heap size and GC
   timing, so the promoted count is subtracted. *)
let sample () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  let p = Pool.totals () in
  let ev, _, _ = Sched.host_counters () in
  { h_wall_s = Unix.gettimeofday (); h_minor = minor;
    h_major = major -. promoted;
    h_hits = p.Pool.t_hits; h_misses = p.Pool.t_misses; h_sched_ev = ev }

(* [diff a b] is [b - a], field by field. *)
let diff a b =
  { h_wall_s = b.h_wall_s -. a.h_wall_s; h_minor = b.h_minor -. a.h_minor;
    h_major = b.h_major -. a.h_major; h_hits = b.h_hits - a.h_hits;
    h_misses = b.h_misses - a.h_misses;
    h_sched_ev = b.h_sched_ev - a.h_sched_ev }

let add a b =
  { h_wall_s = a.h_wall_s +. b.h_wall_s; h_minor = a.h_minor +. b.h_minor;
    h_major = a.h_major +. b.h_major; h_hits = a.h_hits + b.h_hits;
    h_misses = a.h_misses + b.h_misses;
    h_sched_ev = a.h_sched_ev + b.h_sched_ev }

type frame = {
  fr_start : hostm;
  mutable fr_nested : hostm; (* raw totals of directly-nested frames *)
  mutable fr_cells : hostm list; (* forced under this frame, reversed *)
}

let frames_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let frame_begin () =
  let slot = Domain.DLS.get frames_key in
  slot := { fr_start = sample (); fr_nested = zero; fr_cells = [] } :: !slot

(* Returns (exclusive host deltas, cells forced under the frame in
   force order). *)
let frame_end () =
  let slot = Domain.DLS.get frames_key in
  match !slot with
  | [] -> invalid_arg "Env.frame_end: no open frame"
  | fr :: rest ->
    slot := rest;
    let raw = diff fr.fr_start (sample ()) in
    (match rest with
    | parent :: _ -> parent.fr_nested <- add parent.fr_nested raw
    | [] -> ());
    (diff fr.fr_nested raw, List.rev fr.fr_cells)

(* --- simulation cells ---

   [cell f] declares one independent measurement — [f] must be a
   self-contained deterministic simulation (fixed seeds, own machines,
   no state shared with other cells or the enclosing experiment) — and
   queues it on the task pool. [force] waits for it, replays its [emit]
   output here, splices its trace dump into this domain's recording
   scope (in force order — see Msnap_sim.Cell), books its host costs to
   the enclosing frame, and returns its value. With zero pool workers
   the body runs inline at [force]: `-j 1` is exactly the old serial
   execution. *)

module Cell = Msnap_sim.Cell

type 'a cell_outcome = { co_v : 'a; co_out : string; co_host : hostm }
type 'a pending = 'a cell_outcome Cell.t

let cell f : _ pending =
  Cell.submit (fun () ->
      frame_begin ();
      let buf = Buffer.create 256 in
      match captured buf f with
      | v ->
        let host, _ = frame_end () in
        { co_v = v; co_out = Buffer.contents buf; co_host = host }
      | exception e ->
        ignore (frame_end ());
        raise e)

let force (p : _ pending) =
  let o = Cell.force p in
  emit o.co_out;
  (match !(Domain.DLS.get frames_key) with
  | fr :: _ -> fr.fr_cells <- o.co_host :: fr.fr_cells
  | [] -> ());
  o.co_v

(* [shared f] is [cell f] memoised on [f]'s argument for the life of
   the process (locked: experiments run on several domains under -j).
   Every request gets its own [Cell.share] handle, so each reader's
   [force] replays the one run as a standalone run of it would. *)
let shared f =
  let memo = Hashtbl.create 16 and lock = Mutex.create () in
  fun key ->
    Mutex.protect lock (fun () ->
        if not (Hashtbl.mem memo key) then
          Hashtbl.add memo key (cell (fun () -> f key));
        Cell.share (Hashtbl.find memo key))

(* --- buffer-pool pre-warming ---

   Single-shot experiments (table1 runs one simulation) otherwise pay a
   miss for every buffer of their working set: nothing was ever
   recycled on a cold domain. Build-and-dispose a small file-system
   machine and a small MemSnap machine once per domain, outside any
   accounting frame, so the first real experiment finds the machine-
   building size classes (fs cache blocks, page frames) already
   parked. Host-only: pool warmth affects hit/miss
   counters, never a simulated value. *)

let warm () =
  (* The deepest single-run consumer of the 4 KiB class is table2's
     Aurora breakdown: a 4096-page region plus its CoW shadows and
     object-store staging, all live at once before anything is
     recycled. Park that many frames directly — building (and
     simulating) a machine that size just to throw it away would dwarf
     the rest of warm(). Alloc-then-recycle of distinct buffers, so
     the class really retains [page_frames] of them. *)
  let page_frames = 8 * 1024 in
  let bufs = Array.init page_frames (fun _ -> Pool.alloc Addr.page_size) in
  Array.iter Pool.recycle bufs;
  (* 192 FFS blocks (32 KiB): a dbbench run on the SQLite WAL baseline
     (cache capacity 128) peaks at 165-172 live ones. *)
  ignore
    (Sched.run (fun () ->
         let _, fs = mk_fs Fs.Ffs in
         let f = Fs.open_file fs "warm" in
         let bs = Fs.fs_block_size fs in
         let block = Bytes.make bs 'w' in
         for i = 0 to 191 do
           Fs.write fs f ~off:(i * bs) block
         done;
         Fs.fsync fs f));
  ignore
    (Sched.run (fun () ->
         let _, k = mk_msnap () in
         let md = Msnap.open_region k ~name:"warm" ~len:(Size.mib 1) () in
         let b = Bytes.make 64 'w' in
         for i = 0 to 255 do
           Msnap.write k md ~off:(i * 4096) b
         done;
         ignore (Msnap.persist k ~region:md ())))
