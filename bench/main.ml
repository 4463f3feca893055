(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation. Run everything with `dune exec bench/main.exe`, one
   experiment with `-e table6` etc., and fan independent experiments out
   over a pool of OCaml 5 domains with `-j N`. Each experiment is a
   self-contained simulation (own Sched.run, seeded RNGs, domain-local
   metrics), so parallel runs produce byte-identical stdout to serial
   ones; per-experiment host wall-clock is recorded in BENCH_sim.json so
   simulator-throughput regressions show up in review.

   `--trace PATH` records a Chrome trace_event timeline of every
   experiment (see Msnap_sim.Trace). Tracing is host-side observability:
   it cannot perturb any simulated value, so traced and untraced runs
   print identical tables. The per-experiment summary and event counts go
   to stderr / BENCH_sim.json, never stdout.

   `--sample-profile` (serial runs only) samples the host call stack on
   a process-CPU-time timer and prints the hottest source lines to
   stderr at the end; see Sample_profile for what its samples mean. *)

module Trace = Msnap_sim.Trace

let experiments =
  [
    ("table1", ("RocksDB baseline CPU breakdown", Exp_rocks.table1));
    ("table2", ("Aurora region checkpoint breakdown", Exp_micro.table2));
    ("fig1", ("page-protection strategies", Exp_micro.fig1));
    ("table5", ("msnap_persist breakdown", Exp_micro.table5));
    ("table6", ("persistence API latency", Exp_micro.table6));
    ("fig3", ("MemSnap vs Aurora checkpoint latency", Exp_micro.fig3));
    ("table7", ("SQLite dbbench syscalls", Exp_sqlite.table7));
    ("table8", ("SQLite dbbench CPU + wall clock", Exp_sqlite.table8));
    ("fig4", ("SQLite txn latency vs size", Exp_sqlite.fig4));
    ("fig5", ("SQLite TATP throughput vs DB size", Exp_sqlite.fig5));
    ("table9", ("RocksDB MixGraph comparison", Exp_rocks.table9));
    ("table10", ("MemSnap vs Aurora persist cost", Exp_micro.table10));
    ("fig6", ("PostgreSQL TPC-C variants", Exp_pg.fig6));
  ]

let select names =
  match names with
  | [] -> experiments
  | names ->
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some exp -> (name, exp)
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
      names

type timing = {
  t_name : string;
  t_wall_s : float;
  t_host : Env.hostm; (* the frame's exclusive deltas plus its cells' *)
  t_trace_events : int; (* events exported; 0 when tracing is off *)
  t_trace_dropped : int; (* events past the buffer cap, counted not kept *)
  t_trace_s : float; (* host seconds spent dumping + exporting the trace *)
  t_cell_wall_s : float list; (* per-cell host wall, in force order *)
}

let pool_hit_rate (h : Env.hostm) =
  let total = h.h_hits + h.h_misses in
  if total = 0 then 0.0 else float_of_int h.h_hits /. float_of_int total

(* One trace file per experiment: with a single -e the file is exactly
   PATH; otherwise the experiment name is spliced in before ".json". *)
let trace_path_for ~trace ~multi name =
  match trace with
  | None -> None
  | Some path ->
    if not multi then Some path
    else (
      match Filename.chop_suffix_opt ~suffix:".json" path with
      | Some base -> Some (Printf.sprintf "%s.%s.json" base name)
      | None -> Some (Printf.sprintf "%s.%s" path name))

(* Time [f] inside a host accounting frame (Env.frame_begin/end). The
   frame's exclusive deltas plus the deltas of the cells this
   experiment forced — wherever those cells actually ran — attribute
   allocation and pool traffic to this experiment even when its domain
   helped run other tasks while awaiting, or its cells ran on workers.
   Wall clock stays the raw elapsed span: the experiment's critical
   path. Trace collection and export happen right here, on whichever
   domain ran the experiment (cells merge into this domain's buffer at
   force time). *)
let timed ?trace_path name f =
  if trace_path <> None then Trace.enable ();
  Env.frame_begin ();
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let host, cells = Env.frame_end () in
  let trace_events, trace_dropped, trace_s =
    match trace_path with
    | None -> (0, 0, 0.0)
    | Some path ->
      let e0 = Unix.gettimeofday () in
      Trace.disable ();
      let d = Trace.dump () in
      let oc = open_out path in
      Trace.export_json oc d;
      close_out oc;
      let n = d.Trace.d_count in
      (* stderr only: stdout must stay byte-identical with tracing off. *)
      Printf.eprintf "[trace] %s: %d events (%d dropped) -> %s\n%s%!" name n
        d.Trace.d_dropped path
        (Trace.render_summary d);
      if d.Trace.d_dropped > 0 then
        Printf.eprintf
          "[trace] WARNING: %s dropped %d events past the buffer cap — the \
           exported timeline is truncated (per-probe summary totals remain \
           exact)\n%!"
          name d.Trace.d_dropped;
      (n, d.Trace.d_dropped, Unix.gettimeofday () -. e0)
  in
  {
    t_name = name;
    t_wall_s = wall;
    t_host = List.fold_left Env.add host cells;
    t_trace_events = trace_events;
    t_trace_dropped = trace_dropped;
    t_trace_s = trace_s;
    t_cell_wall_s = List.map (fun c -> c.Env.h_wall_s) cells;
  }

(* Run [selected] on the shared task pool with a total budget of [jobs]
   domains: jobs-1 workers plus this one, which helps while awaiting.
   Experiments are Heavy tasks; the cells they submit are Light tasks
   on the same pool, so -j N bounds all simulation work at once. With
   -j 1 the pool has no workers and each experiment runs inline at its
   await. Output is captured per experiment and printed right after its
   await, in experiment order, so stdout is byte-identical whatever N.
   An experiment that raises still has what it printed so far shown
   before the exception propagates from its await. *)
let run_experiments ~trace jobs selected =
  let module Taskpool = Msnap_util.Taskpool in
  let multi = List.length selected > 1 in
  let run_one (name, (_, f)) () =
    let buf = Buffer.create 4096 in
    let r =
      match
        timed ?trace_path:(trace_path_for ~trace ~multi name) name (fun () ->
            Env.captured buf f)
      with
      | t -> Ok t
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    (r, Buffer.contents buf)
  in
  Taskpool.on_worker_init Env.warm;
  Taskpool.ensure_workers (jobs - 1);
  let tasks =
    List.map (fun e -> Taskpool.submit ~cls:Taskpool.Heavy (run_one e)) selected
  in
  let timings =
    List.map
      (fun task ->
        let r, out = Taskpool.await task in
        print_string out;
        flush stdout;
        match r with
        | Ok t -> t
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      tasks
  in
  Taskpool.shutdown ();
  timings

let write_timings ~path ~jobs ~total timings =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"memsnap-bench-sim/8\",\n";
  p "  \"jobs\": %d,\n" jobs;
  (* Cells share the experiment pool, so the budgets coincide; the field
     is separate so readers need not infer it from "jobs". *)
  p "  \"cell_jobs\": %d,\n" jobs;
  p "  \"total_wall_s\": %.3f,\n" total;
  p "  \"experiments\": [\n";
  List.iteri
    (fun i t ->
      p
        "    { \"name\": %S, \"wall_s\": %.3f, \"minor_words\": %.0f, \
         \"major_words\": %.0f, \"pool_hits\": %d, \"pool_misses\": %d, \
         \"pool_hit_rate\": %.3f, \"sched_events\": %d, \
         \"trace_events\": %d, \"trace_dropped\": %d, \
         \"trace_overhead_s\": %.3f, \
         \"cells\": %d, \"cell_wall_s\": [%s] }%s\n"
        t.t_name t.t_wall_s t.t_host.h_minor t.t_host.h_major t.t_host.h_hits
        t.t_host.h_misses (pool_hit_rate t.t_host) t.t_host.h_sched_ev
        t.t_trace_events t.t_trace_dropped t.t_trace_s
        (List.length t.t_cell_wall_s)
        (String.concat ", "
           (List.map (fun w -> Printf.sprintf "%.3f" w) t.t_cell_wall_s))
        (if i = List.length timings - 1 then "" else ","))
    timings;
  p "  ]\n}\n";
  close_out oc

let run names jobs timings_path trace partial sample_profile =
  let selected = select names in
  if sample_profile && jobs > 1 then begin
    prerr_endline
      "[bench] --sample-profile needs a serial run: samples from a -j pool \
       cannot be attributed; drop -j.";
    exit 2
  end;
  (* A subset run would silently replace full-suite results with a file
     missing most experiments; require an explicit opt-in. *)
  if
    List.length selected < List.length experiments
    && Sys.file_exists timings_path
    && not partial
  then begin
    Printf.eprintf
      "[bench] refusing to overwrite %s: only %d of %d experiments selected. \
       Pass --partial to allow, or --timings PATH to write elsewhere.\n%!"
      timings_path (List.length selected)
      (List.length experiments);
    exit 2
  end;
  if names = [] then
    print_endline "MemSnap reproduction: regenerating every table and figure";
  (* Park the machine-building buffer classes before any timed window
     (workers do the same via Taskpool.on_worker_init). *)
  Env.warm ();
  let t0 = Unix.gettimeofday () in
  if sample_profile then Sample_profile.start ();
  let timings = run_experiments ~trace jobs selected in
  if sample_profile then Sample_profile.stop ();
  let total = Unix.gettimeofday () -. t0 in
  write_timings ~path:timings_path ~jobs:(max 1 jobs) ~total timings;
  print_endline "\ndone.";
  Printf.eprintf "[bench] %.1fs wall (%d job%s); timings -> %s\n%!" total
    (max 1 jobs)
    (if jobs > 1 then "s" else "")
    timings_path;
  if sample_profile then Sample_profile.report ()

open Cmdliner

let names =
  Arg.(value & opt_all string [] & info [ "e"; "experiment" ]
         ~doc:"Experiment id (table1..table10, fig1..fig6). \
               Repeatable; default runs all.")

let jobs =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ]
         ~doc:"Run experiments on a pool of $(docv) OCaml domains. Output \
               order and every simulated value are identical to -j 1; only \
               host wall-clock changes.")

let timings_path =
  Arg.(value & opt string "BENCH_sim.json" & info [ "timings" ]
         ~doc:"Where to write per-experiment wall-clock timings (JSON).")

let partial =
  Arg.(value & flag & info [ "partial" ]
         ~doc:"Allow overwriting the timings file when only a subset of \
               experiments is selected (the file then covers just that \
               subset).")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Record a Chrome trace_event timeline to $(docv) (load in \
               chrome://tracing or ui.perfetto.dev). With several \
               experiments selected, one file per experiment with the \
               name spliced in. Host-side only: simulated values are \
               byte-identical with tracing on or off." ~docv:"PATH")

let sample_profile =
  Arg.(value & flag & info [ "sample-profile" ]
         ~doc:"Sample the host call stack every millisecond of process CPU \
               time and print the hottest source lines (self and \
               inclusive) to stderr. Samples land at the next OCaml poll \
               point, so time in C stubs and in loops without polls is \
               charged to whatever runs next (often a small accessor \
               such as Sched.engine_slot), not to the calling line. \
               Serial runs only; stdout is unchanged.")

let cmd =
  Cmd.v
    (Cmd.info "memsnap-bench"
       ~doc:"Reproduce the MemSnap paper's evaluation tables and figures")
    Term.(const run $ names $ jobs $ timings_path $ trace $ partial
          $ sample_profile)

let () = exit (Cmd.eval cmd)
