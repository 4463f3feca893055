(* msnap: a small CLI for poking at the simulated MemSnap machine.

   Subcommands:
     costs       print the calibrated hardware cost model
     persist     time msnap_persist for a dirty-set size sweep
     torture     crash-inject a region under load and verify recovery
     crashcheck  run the crash-schedule model checker over every engine
*)

module Sched = Msnap_sim.Sched
module Trace = Msnap_sim.Trace
module Costs = Msnap_sim.Costs
module Rng = Msnap_util.Rng
module Size = Msnap_util.Size
module Tbl = Msnap_util.Tbl
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Msnap = Msnap_core.Msnap

let costs () =
  let t = Tbl.create ~title:"calibrated cost model" ~headers:[ "Primitive"; "ns" ] in
  List.iter
    (fun (name, v) -> Tbl.row t [ name; string_of_int v ])
    [
      ("syscall", Costs.syscall);
      ("minor write fault", Costs.fault_entry);
      ("PTE update (isolated)", Costs.pte_update);
      ("PTE update (range scan)", Costs.pte_update_bulk);
      ("page-table walk (software)", Costs.pt_walk_sw);
      ("TLB shootdown (IPI)", Costs.tlb_shootdown);
      ("TLB full flush", Costs.tlb_flush_all);
      ("page copy (COW)", Costs.page_copy);
      ("disk command floor", Costs.disk_base);
      ("disk transfer / 64 KiB", Costs.disk_xfer (Size.kib 64));
      ("scatter/gather segment setup", Costs.io_initiate);
    ];
  Tbl.print t

(* Wrap [f] with trace collection when [--trace PATH] was given. The
   trace is host-side observability only: every simulated number the
   subcommand prints is identical with or without it. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let v, d = Trace.collect f in
    let oc = open_out path in
    Trace.export_json oc d;
    close_out oc;
    Printf.eprintf "[trace] %d events (%d dropped) -> %s\n%s%!"
      d.Trace.d_count
      d.Trace.d_dropped path
      (Trace.render_summary d);
    v

let persist_sweep trace =
  with_trace trace @@ fun () ->
  let t =
    Tbl.create ~title:"msnap_persist latency by dirty-set size"
      ~headers:[ "Dirty"; "sync us"; "async us" ]
  in
  List.iter
    (fun kib ->
      let run mode =
        Sched.run (fun () ->
            let dev = Device.testbed ~mib:256 in
            Sched.on_exit (fun () -> Device.dispose dev);
            let k = Msnap.boot ~format:true dev in
            Sched.on_exit (fun () -> Msnap.dispose k);
            let md = Msnap.open_region k ~name:"r" ~len:(Size.mib 64) () in
            let rng = Rng.create 1 in
            let total = ref 0 in
            for _ = 1 to 8 do
              let pages = max 1 (Size.kib kib / 4096) in
              let seen = Hashtbl.create pages in
              while Hashtbl.length seen < pages do
                Hashtbl.replace seen (Rng.int rng (Size.mib 64 / 4096)) ()
              done;
              Hashtbl.iter
                (fun p () -> Msnap.write k md ~off:(p * 4096) (Bytes.make 32 'x'))
                seen;
              let t0 = Sched.now () in
              ignore (Msnap.persist k ~region:md ~mode ());
              total := !total + (Sched.now () - t0);
              Sched.delay 5_000_000
            done;
            !total / 8)
      in
      Tbl.row t
        [ Size.pp (Size.kib kib); Tbl.us (run `Sync); Tbl.us (run `Async) ])
    [ 4; 16; 64; 256; 1024 ];
  Tbl.print t

let torture trace record_mode =
  with_trace trace @@ fun () ->
  let survived = ref 0 in
  for round = 1 to 10 do
    let ok =
      Sched.run (fun () ->
          let dev = Device.testbed ~mib:256 in
          Sched.on_exit (fun () -> Device.dispose dev);
          (* --record attaches an (unarmed) crash-schedule recorder:
             host-only observability, so every simulated value printed
             below must be identical with or without it — CI cmps the
             two stdouts. *)
          if record_mode then
            Device.attach_record dev (Msnap_blockdev.Record.create ());
          (* The kernel that loses power registers no teardown: buffer
             ownership may be mid-transfer. *)
          let k = Msnap.boot ~format:true dev in
          let md = Msnap.open_region k ~name:"t" ~len:(Size.mib 1) () in
          let committed = ref 0 in
          let w =
            Sched.spawn (fun () ->
                try
                  for i = 0 to 10_000 do
                    let b = Bytes.create 8 in
                    Bytes.set_int64_le b 0 (Int64.of_int i);
                    Msnap.write k md ~off:((i mod 256) * 4096) b;
                    ignore (Msnap.persist k ~region:md ());
                    committed := i
                  done
                with Disk.Powered_off -> ())
          in
          Sched.delay (1_000_000 * round);
          Device.fail_power dev ~torn_seed:round;
          Sched.join w;
          Device.restore_power dev;
          let k2 = Msnap.boot ~format:false dev in
          Sched.on_exit (fun () -> Msnap.dispose k2);
          let md2 = Msnap.open_region k2 ~name:"t" ~len:(Size.mib 1) () in
          (* The recovered page for the last committed write must hold it. *)
          let i = !committed in
          let v =
            Int64.to_int
              (Bytes.get_int64_le (Msnap.read k2 md2 ~off:((i mod 256) * 4096) ~len:8) 0)
          in
          v = i || v = i + 1)
    in
    Printf.printf "round %2d: %s\n%!" round (if ok then "consistent" else "CORRUPT");
    if ok then incr survived
  done;
  Printf.printf "%d/10 crash rounds recovered consistently\n" !survived;
  if !survived < 10 then exit 1

(* The crash-schedule model checker over the scripted engine workloads:
   record one crash-free run, then crash it at every durable boundary
   (three torn seeds each) and demand recovery lands on a candidate
   history step. Deterministic: the report for a given option set is
   byte-identical serially and with [-j]. *)
let crashcheck engines jobs max_points =
  let module Checker = Msnap_faults.Checker in
  let module W = Msnap_crashwl.Workloads in
  let workloads =
    match engines with
    | [] -> W.all
    | names ->
      List.map
        (fun n ->
          match W.by_name n with
          | Some w -> w
          | None ->
            Printf.eprintf "unknown engine %S (have: %s)\n" n
              (String.concat ", " W.names);
            exit 2)
        names
  in
  let opts = { Checker.default_opts with jobs; max_points } in
  let failed = ref false in
  List.iter
    (fun w ->
      let r = Checker.run ~opts w in
      print_string (Checker.pp_report r);
      flush stdout;
      if r.Checker.r_failures <> [] then failed := true)
    workloads;
  if !failed then exit 1

open Cmdliner

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Record a Chrome trace_event timeline to $(docv) (host-side \
               only; simulated values are unchanged)." ~docv:"PATH")

let cmd =
  Cmd.group (Cmd.info "msnap" ~doc:"Explore the simulated MemSnap machine")
    [
      Cmd.v (Cmd.info "costs" ~doc:"Print the calibrated cost model")
        Term.(const costs $ const ());
      Cmd.v (Cmd.info "persist" ~doc:"Sweep msnap_persist latency")
        Term.(const persist_sweep $ trace);
      (let record_mode =
         Arg.(value & flag
              & info [ "record" ]
                  ~doc:"Attach a crash-schedule recorder to the device \
                        (host-side only; output must be unchanged).")
       in
       Cmd.v (Cmd.info "torture" ~doc:"Crash-inject and verify recovery")
         Term.(const torture $ trace $ record_mode));
      (let engines =
         Arg.(value & opt_all string []
              & info [ "e"; "engine" ]
                  ~doc:"Check only $(docv) (repeatable; default: all engines)."
                  ~docv:"NAME")
       in
       let jobs =
         Arg.(value & opt int 1
              & info [ "j"; "jobs" ]
                  ~doc:"Check crash points on $(docv) domains in total, \
                        this one included (1 = serial; the report is \
                        identical either way)."
                  ~docv:"N")
       in
       let max_points =
         Arg.(value & opt int Msnap_faults.Checker.default_opts.max_points
              & info [ "max-points" ]
                  ~doc:"Sample down to at most $(docv) crash points per \
                        engine (seeded, deterministic)."
                  ~docv:"N")
       in
       Cmd.v
         (Cmd.info "crashcheck"
            ~doc:"Crash every durable boundary of each engine's scripted \
                  workload and verify its recovery invariant")
         Term.(const crashcheck $ engines $ jobs $ max_points));
    ]

let () = exit (Cmd.eval cmd)
