module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Trace = Msnap_sim.Trace

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let test_run_returns () = checki "result" 7 (Sched.run (fun () -> 7))

let test_clock_starts_zero () =
  checki "t0" 0 (Sched.run (fun () -> Sched.now ()))

let test_delay_advances () =
  checki "t" 1234
    (Sched.run (fun () ->
         Sched.delay 1234;
         Sched.now ()))

let test_cpu_advances_and_charges () =
  let total =
    Sched.run (fun () ->
        Sched.cpu 100;
        Sched.with_bucket Probe.Bucket.io (fun () -> Sched.cpu 50);
        Sched.account_total ())
  in
  checki "charged" 150 total

let test_buckets () =
  let report =
    Sched.run (fun () ->
        Sched.cpu 10;
        Sched.with_bucket Probe.Bucket.log (fun () ->
            Sched.cpu 20;
            Sched.with_bucket Probe.Bucket.write (fun () -> Sched.cpu 30);
            Sched.cpu 5);
        Sched.account_report ())
  in
  checki "log" 25 (List.assoc "log" report);
  checki "write" 30 (List.assoc "write" report);
  checki "user" 10 (List.assoc "user" report)

let test_spawn_join () =
  let v =
    Sched.run (fun () ->
        let r = ref 0 in
        let t =
          Sched.spawn (fun () ->
              Sched.delay 500;
              r := 42)
        in
        Sched.join t;
        checki "joined after work" 42 !r;
        Sched.now ())
  in
  checki "time includes child delay" 500 v

let test_join_finished_thread () =
  Sched.run (fun () ->
      let t = Sched.spawn (fun () -> ()) in
      Sched.delay 10;
      Sched.join t;
      Sched.join t (* idempotent *))

let test_concurrent_delays_interleave () =
  (* Two threads sleeping different amounts: completion order by time. *)
  let order =
    Sched.run (fun () ->
        let log = ref [] in
        let a =
          Sched.spawn (fun () ->
              Sched.delay 200;
              log := "a" :: !log)
        in
        let b =
          Sched.spawn (fun () ->
              Sched.delay 100;
              log := "b" :: !log)
        in
        Sched.join a;
        Sched.join b;
        List.rev !log)
  in
  checks "order" "b,a" (String.concat "," order)

let test_same_time_fifo () =
  (* Equal wake times resolve in spawn order: determinism. *)
  let order =
    Sched.run (fun () ->
        let log = ref [] in
        let ts =
          List.init 5 (fun i ->
              Sched.spawn (fun () ->
                  Sched.delay 100;
                  log := string_of_int i :: !log))
        in
        List.iter Sched.join ts;
        List.rev !log)
  in
  checks "fifo" "0,1,2,3,4" (String.concat "," order)

let test_deadlock_detected () =
  let raised =
    try
      ignore
        (Sched.run (fun () ->
             let m = Sync.Mutex.create () in
             Sync.Mutex.lock m;
             Sync.Mutex.lock m));
      false
    with Sched.Deadlock _ -> true
  in
  checkb "deadlock" true raised

let test_exception_propagates () =
  let raised =
    try
      ignore (Sched.run (fun () -> failwith "boom"));
      false
    with Failure m -> m = "boom"
  in
  checkb "propagated" true raised

let test_child_exception_propagates () =
  let raised =
    try
      ignore
        (Sched.run (fun () ->
             let t = Sched.spawn (fun () -> failwith "child") in
             Sched.join t));
      false
    with Failure m -> m = "child"
  in
  checkb "propagated" true raised

let test_run_not_nested_state () =
  (* After a failed run, a fresh run works. *)
  (try ignore (Sched.run (fun () -> failwith "x")) with Failure _ -> ());
  checki "fresh run" 1 (Sched.run (fun () -> 1))

let test_mutex_mutual_exclusion () =
  Sched.run (fun () ->
      let m = Sync.Mutex.create () in
      let inside = ref 0 and max_inside = ref 0 in
      let worker () =
        for _ = 1 to 20 do
          Sync.Mutex.with_lock m (fun () ->
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Sched.delay 7;
              decr inside)
        done
      in
      let ts = List.init 4 (fun i -> Sched.spawn ~name:(Printf.sprintf "w%d" i) worker) in
      List.iter Sched.join ts;
      checki "never two inside" 1 !max_inside)

let test_mutex_unlock_unlocked () =
  Sched.run (fun () ->
      let m = Sync.Mutex.create () in
      let raised = try Sync.Mutex.unlock m; false with Invalid_argument _ -> true in
      checkb "raises" true raised)

let test_try_lock () =
  Sched.run (fun () ->
      let m = Sync.Mutex.create () in
      checkb "first" true (Sync.Mutex.try_lock m);
      checkb "second" false (Sync.Mutex.try_lock m);
      Sync.Mutex.unlock m;
      checkb "after unlock" true (Sync.Mutex.try_lock m))

let test_condition_broadcast () =
  Sched.run (fun () ->
      let m = Sync.Mutex.create () in
      let c = Sync.Condition.create () in
      let go = ref false in
      let woken = ref 0 in
      let waiter () =
        Sync.Mutex.lock m;
        while not !go do
          Sync.Condition.wait c m
        done;
        incr woken;
        Sync.Mutex.unlock m
      in
      let ts = List.init 3 (fun _ -> Sched.spawn waiter) in
      Sched.delay 100;
      Sync.Mutex.with_lock m (fun () -> go := true);
      Sync.Condition.broadcast c;
      List.iter Sched.join ts;
      checki "all woken" 3 !woken)

let test_semaphore_bounds () =
  Sched.run (fun () ->
      let s = Sync.Semaphore.create 2 in
      let inside = ref 0 and max_inside = ref 0 in
      let worker () =
        Sync.Semaphore.acquire s;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Sched.delay 10;
        decr inside;
        Sync.Semaphore.release s
      in
      let ts = List.init 6 (fun _ -> Sched.spawn worker) in
      List.iter Sched.join ts;
      checkb "bounded by 2" true (!max_inside <= 2);
      checki "permits restored" 2 (Sync.Semaphore.value s))

let test_ivar () =
  Sched.run (fun () ->
      let iv = Sync.Ivar.create () in
      checkb "not filled" false (Sync.Ivar.is_filled iv);
      let _ =
        Sched.spawn (fun () ->
            Sched.delay 50;
            Sync.Ivar.fill iv 9)
      in
      checki "read blocks until fill" 9 (Sync.Ivar.read iv);
      checki "time" 50 (Sched.now ());
      checki "second read immediate" 9 (Sync.Ivar.read iv);
      let raised = try Sync.Ivar.fill iv 1; false with Invalid_argument _ -> true in
      checkb "double fill" true raised)

let test_channel () =
  Sched.run (fun () ->
      let ch = Sync.Channel.create ~capacity:2 in
      let consumed = ref [] in
      let c =
        Sched.spawn (fun () ->
            for _ = 1 to 5 do
              consumed := Sync.Channel.recv ch :: !consumed;
              Sched.delay 10
            done)
      in
      for i = 1 to 5 do
        Sync.Channel.send ch i
      done;
      Sched.join c;
      checks "fifo order" "1,2,3,4,5"
        (String.concat "," (List.rev_map string_of_int !consumed)))

let test_metrics () =
  Metrics.reset ();
  Sched.run (fun () ->
      let x = Probe.make Probe.Host "x" in
      Metrics.incr x;
      Metrics.incr ~by:4 x;
      Metrics.add_sample (Probe.make Probe.Host "lat") 100;
      Metrics.add_sample (Probe.make Probe.Host "lat") 300;
      Metrics.timed (Probe.make Probe.Host "op") (fun () -> Sched.delay 77));
  checki "counter" 5 (Metrics.count (Probe.make Probe.Host "x"));
  checki "samples" 2 (Metrics.samples (Probe.make Probe.Host "lat"));
  Alcotest.(check (float 0.01)) "mean" 200.0
    (Metrics.mean_ns (Probe.make Probe.Host "lat"));
  Alcotest.(check (float 0.01)) "timed" 77.0
    (Metrics.mean_ns (Probe.make Probe.Host "op"));
  Metrics.reset ();
  checki "reset" 0 (Metrics.count (Probe.make Probe.Host "x"))

(* --- Metrics: reset, nesting, histogram counts --- *)

let test_metrics_reset_clears_hists () =
  Metrics.reset ();
  Sched.run (fun () ->
      Metrics.add_sample Probe.db_write 100;
      Metrics.add_sample Probe.db_write 200);
  checki "samples before reset" 2 (Metrics.samples Probe.db_write);
  checkb "hist exists" true (Metrics.hist Probe.db_write <> None);
  Metrics.reset ();
  checki "samples cleared" 0 (Metrics.samples Probe.db_write);
  checkb "hist cleared" true (Metrics.hist Probe.db_write = None);
  checki "counter cleared" 0 (Metrics.count Probe.db_write)

let test_metrics_timed_nesting () =
  Metrics.reset ();
  Sched.run (fun () ->
      Metrics.timed Probe.db_write (fun () ->
          Sched.delay 100;
          Metrics.timed Probe.db_fsync (fun () -> Sched.delay 40);
          Sched.delay 10));
  Alcotest.(check (float 0.01))
    "outer includes inner" 150.0
    (Metrics.mean_ns Probe.db_write);
  Alcotest.(check (float 0.01)) "inner" 40.0 (Metrics.mean_ns Probe.db_fsync);
  checki "one outer sample" 1 (Metrics.samples Probe.db_write);
  checki "one inner sample" 1 (Metrics.samples Probe.db_fsync)

let test_metrics_histogram_sample_counts () =
  Metrics.reset ();
  Sched.run (fun () ->
      for i = 1 to 64 do
        Metrics.add_sample Probe.db_read (i * 10)
      done);
  checki "samples" 64 (Metrics.samples Probe.db_read);
  (match Metrics.hist Probe.db_read with
  | None -> Alcotest.fail "histogram missing"
  | Some h -> checki "hist count" 64 (Msnap_util.Histogram.count h));
  (* add_sample also bumps the implicit op counter of the same name. *)
  checki "implicit counter" 64 (Metrics.count Probe.db_read)

(* --- typed buckets --- *)

let test_bucket_nesting_typed () =
  let report =
    Sched.run (fun () ->
        Sched.with_bucket Probe.Bucket.io (fun () ->
            Sched.cpu 20;
            Sched.with_bucket Probe.Bucket.fsync (fun () -> Sched.cpu 30);
            Sched.cpu 5);
        Sched.cpu 2;
        Sched.account_report ())
  in
  checki "outer keeps only its own time" 25 (List.assoc "io" report);
  checki "inner" 30 (List.assoc "fsync" report);
  checki "user" 2 (List.assoc "user" report);
  (* Separate sections charging the same bucket share one key. *)
  let r2 =
    Sched.run (fun () ->
        Sched.with_bucket Probe.Bucket.io (fun () -> Sched.cpu 1);
        Sched.with_bucket Probe.Bucket.io (fun () -> Sched.cpu 2);
        Sched.account_report ())
  in
  checki "same key" 3 (List.assoc "io" r2)

(* --- Trace --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_trace_disabled_no_events () =
  Trace.enable ();
  Trace.disable ();
  Sched.run (fun () ->
      Trace.instant Probe.vm_write_fault;
      Trace.complete Probe.db_write ~dur:10);
  checki "no events recorded" 0 (Trace.event_count ());
  checki "now is 0 when off" 0 (Trace.now ())

let test_trace_span_records () =
  Trace.enable ();
  Sched.run (fun () -> Trace.with_span Probe.fs_fsync (fun () -> Sched.delay 120));
  Trace.disable ();
  let d = Trace.dump () in
  (* The run also records the main thread's lifetime span (sched.thread);
     pick out the fsync span. *)
  let spans =
    Array.to_list (Trace.events d)
    |> List.filter (fun e -> Probe.name e.Trace.ev_probe = "fs.fsync")
  in
  checki "one fsync span" 1 (List.length spans);
  let e = List.hd spans in
  checks "subsystem" "fs"
    (Probe.subsystem_name (Probe.subsystem e.Trace.ev_probe));
  checki "dur is the virtual-time delta" 120 e.Trace.ev_dur

let test_trace_flow_ids_unique () =
  Trace.enable ();
  let a = Trace.new_flow () in
  let b = Trace.new_flow () in
  Trace.disable ();
  checkb "nonzero and distinct" true (a <> 0 && b <> 0 && a <> b)

let test_trace_summary_reconciles_with_buckets () =
  Metrics.reset ();
  Trace.enable ();
  let report =
    Sched.run (fun () ->
        Metrics.timed Probe.db_fsync (fun () ->
            Sched.with_bucket Probe.Bucket.fsync (fun () -> Sched.cpu 500));
        Sched.account_report ())
  in
  Trace.disable ();
  let d = Trace.dump () in
  let _, _, count, total, _ =
    List.find
      (fun (sub, name, _, _, _) -> sub = "db" && name = "fsync")
      d.Trace.d_summary
  in
  checki "one span" 1 count;
  checki "span total equals the fsync bucket charge"
    (List.assoc "fsync" report)
    total

let test_trace_export_json () =
  Trace.enable ();
  Sched.run (fun () ->
      let flow = Trace.new_flow () in
      Trace.instant Probe.msnap_first_fault ~flow:(flow, Trace.Flow_start);
      Trace.with_span Probe.db_write (fun () -> Sched.delay 10);
      Trace.instant Probe.msnap_durable ~flow:(flow, Trace.Flow_end));
  Trace.disable ();
  let d = Trace.dump () in
  let path = Filename.temp_file "msnap_trace" ".json" in
  let oc = open_out path in
  Trace.export_json oc d;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  List.iter
    (fun sub -> checkb sub true (contains s sub))
    [
      {|"traceEvents"|}; {|"ph":"X"|}; {|"ph":"i"|}; {|"ph":"s"|}; {|"ph":"f"|};
      {|"cat":"db"|}; {|"cat":"msnap"|}; {|"name":"msnap.first_fault"|};
      {|"displayTimeUnit"|};
    ]

let test_trace_buffer_cap_keeps_summary_exact () =
  Trace.enable ~limit:8 ();
  Sched.run (fun () ->
      for _ = 1 to 20 do
        Trace.complete Probe.db_write ~dur:5
      done);
  Trace.disable ();
  let d = Trace.dump () in
  checki "buffer capped" 8 d.Trace.d_count;
  (* 20 writes + the main thread's lifetime span, 8 kept. *)
  checki "overflow counted" 13 d.Trace.d_dropped;
  let _, _, count, total, _ =
    List.find
      (fun (sub, name, _, _, _) -> sub = "db" && name = "write")
      d.Trace.d_summary
  in
  checki "summary counts all emissions" 20 count;
  checki "summary total exact past the cap" 100 total

let test_pq_order () =
  (* Interleaved pushes and pops must drain in (prio, insertion) order —
     exercises the vacated-slot clearing in pop. *)
  let q = Pq.create () in
  let popped = ref [] in
  let r = ref 12345 in
  let next () =
    r := (!r * 1103515245) + 12345;
    (!r lsr 16) land 0xff
  in
  for round = 0 to 4 do
    for _ = 1 to 50 do
      let p = next () in
      Pq.push q ~prio:p p
    done;
    for _ = 1 to 20 + round do
      match Pq.pop q with
      | Some v -> popped := v :: !popped
      | None -> Alcotest.fail "premature empty"
    done
  done;
  let rec drain () =
    match Pq.pop q with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  checkb "empty" true (Pq.is_empty q);
  checki "popped all" 250 (List.length !popped);
  (* Each drained batch must be sorted w.r.t. what was in the queue; a
     global check: total multiset is preserved. *)
  let sum = List.fold_left ( + ) 0 !popped in
  checkb "sum positive" true (sum > 0)

let test_pq_fifo_ties () =
  let q = Pq.create () in
  List.iteri (fun i v -> ignore i; Pq.push q ~prio:7 v) [ "a"; "b"; "c"; "d" ];
  let out = List.init 4 (fun _ -> Option.get (Pq.pop q)) in
  checks "tie order" "a,b,c,d" (String.concat "," out)

let test_delay_fast_path_ordering () =
  (* A thread advancing via the inline fast path must still lose the race
     to work already queued at the same instant. *)
  let order =
    Sched.run (fun () ->
        let log = ref [] in
        let a =
          Sched.spawn ~name:"a" (fun () ->
              Sched.delay 100;
              log := "a" :: !log)
        in
        let b =
          Sched.spawn ~name:"b" (fun () ->
              (* Lands exactly on a's wake time: a was enqueued first, so a
                 must still run first even though b could fast-path. *)
              Sched.delay 60;
              Sched.delay 40;
              log := "b" :: !log)
        in
        Sched.join a;
        Sched.join b;
        List.rev !log)
  in
  checks "order" "a,b" (String.concat "," order)

(* --- waker pooling --- *)

let test_waker_pool_reuse () =
  (* A channel ping-pong parks thousands of times, but only a handful of
     threads are ever parked at once: nearly every park must be served
     from the per-engine waker free list, not a fresh allocation. *)
  let _, _, al0, re0 = Sched.host_counters () in
  Sched.run (fun () ->
      let ch = Sync.Channel.create ~capacity:1 in
      let a =
        Sched.spawn ~name:"send" (fun () ->
            for i = 1 to 2_000 do
              Sync.Channel.send ch i
            done)
      in
      let b =
        Sched.spawn ~name:"recv" (fun () ->
            for _ = 1 to 2_000 do
              ignore (Sync.Channel.recv ch)
            done)
      in
      Sched.join a;
      Sched.join b);
  let _, _, al1, re1 = Sched.host_counters () in
  checkb "few fresh wakers" true (al1 - al0 <= 8);
  checkb "parks served from the free list" true (re1 - re0 > 1_000)

let test_host_counters_ev_vs_ctx () =
  (* A lone thread yielding to itself pops run-queue events that hand the
     CPU straight back: events tick, context switches must not. *)
  let e0, c0, _, _ = Sched.host_counters () in
  Sched.run (fun () ->
      for _ = 1 to 50 do
        Sched.yield ()
      done);
  let e1, c1, _, _ = Sched.host_counters () in
  checkb "yields popped as events" true (e1 - e0 >= 50);
  checkb "self-resumes are not switches" true (c1 - c0 <= 2)

let test_waker_stale_wake_detected () =
  (* Wakers are recycled when their thread resumes; waking one after that
     point would target whatever park reused it. Under debug_checks the
     free list is disabled and released wakers are poisoned, so the
     stale wake surfaces as Violation. A double wake *before* the
     resume stays a legal no-op. *)
  let saved = !Msnap_util.Slice.debug_checks in
  Msnap_util.Slice.debug_checks := true;
  Fun.protect
    ~finally:(fun () -> Msnap_util.Slice.debug_checks := saved)
    (fun () ->
      Sched.run (fun () ->
          let leaked = ref None in
          let t =
            Sched.spawn ~name:"parker" (fun () ->
                Sched.suspend (fun w -> leaked := Some w))
          in
          Sched.yield ();
          let w = Option.get !leaked in
          Sched.wake w;
          Sched.wake w;
          (* still pre-resume: a no-op *)
          Sched.join t;
          match Sched.wake w with
          | () -> Alcotest.fail "stale wake not detected"
          | exception Sched.Violation _ -> ()))

let test_cpu_charges_across_threads_same_bucket () =
  (* Two threads charging the same bucket: the cached cells must alias the
     same counter. *)
  let report =
    Sched.run (fun () ->
        let w () = Sched.with_bucket Probe.Bucket.io (fun () -> Sched.cpu 30) in
        let t1 = Sched.spawn w in
        let t2 = Sched.spawn w in
        Sched.join t1;
        Sched.join t2;
        Sched.account_report ())
  in
  checki "io" 60 (List.assoc "io" report)

let test_account_report_only_charged_buckets () =
  (* Buckets appear in the report only once charged — entering a bucket
     without spending CPU must not materialize it. *)
  let report =
    Sched.run (fun () ->
        Sched.with_bucket Probe.Bucket.page_faults (fun () -> ());
        Sched.cpu 5;
        Sched.account_report ())
  in
  checkb "silent absent" true (List.assoc_opt "page faults" report = None);
  checki "user" 5 (List.assoc "user" report)

let test_determinism_end_to_end () =
  (* The same program must produce the identical trace twice. *)
  let program () =
    Sched.run (fun () ->
        let acc = ref [] in
        let m = Sync.Mutex.create () in
        let ts =
          List.init 8 (fun i ->
              Sched.spawn (fun () ->
                  Sched.delay ((i * 37) mod 5 * 10);
                  Sync.Mutex.with_lock m (fun () ->
                      Sched.cpu 13;
                      acc := (i, Sched.now ()) :: !acc)))
        in
        List.iter Sched.join ts;
        !acc)
  in
  Alcotest.(check (list (pair int int))) "identical" (program ()) (program ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [
      ( "sched",
        [
          tc "run returns" test_run_returns;
          tc "clock zero" test_clock_starts_zero;
          tc "delay" test_delay_advances;
          tc "cpu charges" test_cpu_advances_and_charges;
          tc "buckets" test_buckets;
          tc "spawn/join" test_spawn_join;
          tc "join finished" test_join_finished_thread;
          tc "interleave" test_concurrent_delays_interleave;
          tc "fifo ties" test_same_time_fifo;
          tc "deadlock" test_deadlock_detected;
          tc "exception" test_exception_propagates;
          tc "child exception" test_child_exception_propagates;
          tc "reusable after failure" test_run_not_nested_state;
          tc "delay fast path ordering" test_delay_fast_path_ordering;
          tc "shared bucket cells" test_cpu_charges_across_threads_same_bucket;
          tc "lazy bucket creation" test_account_report_only_charged_buckets;
          tc "typed bucket nesting" test_bucket_nesting_typed;
          tc "determinism" test_determinism_end_to_end;
        ] );
      ( "pq",
        [
          tc "interleaved order" test_pq_order;
          tc "fifo ties" test_pq_fifo_ties;
        ] );
      ( "waker",
        [
          tc "pool reuse" test_waker_pool_reuse;
          tc "stale wake detected" test_waker_stale_wake_detected;
          tc "events vs context switches" test_host_counters_ev_vs_ctx;
        ] );
      ( "sync",
        [
          tc "mutex exclusion" test_mutex_mutual_exclusion;
          tc "unlock unlocked" test_mutex_unlock_unlocked;
          tc "try_lock" test_try_lock;
          tc "cond broadcast" test_condition_broadcast;
          tc "semaphore" test_semaphore_bounds;
          tc "ivar" test_ivar;
          tc "channel" test_channel;
        ] );
      ( "metrics",
        [
          tc "counters and samples" test_metrics;
          tc "reset clears histograms" test_metrics_reset_clears_hists;
          tc "timed nesting" test_metrics_timed_nesting;
          tc "histogram sample counts" test_metrics_histogram_sample_counts;
        ] );
      ( "trace",
        [
          tc "disabled records nothing" test_trace_disabled_no_events;
          tc "span records probe and dur" test_trace_span_records;
          tc "flow ids unique" test_trace_flow_ids_unique;
          tc "summary reconciles buckets" test_trace_summary_reconciles_with_buckets;
          tc "export json shape" test_trace_export_json;
          tc "summary exact past cap" test_trace_buffer_cap_keeps_summary_exact;
        ] );
    ]
