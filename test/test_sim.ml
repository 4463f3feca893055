module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Trace = Msnap_sim.Trace
module Cell = Msnap_sim.Cell
module Taskpool = Msnap_util.Taskpool
module Histogram = Msnap_util.Histogram

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

(* A deadlocked run is finalized once, like any other: its trace
   timeline advances by the run plus one gap, and its host counters are
   booked once (a one-event run either way). *)
let test_deadlock_finalizes_once () =
  let events f =
    let before, _, _ = Sched.host_counters () in
    f ();
    let after, _, _ = Sched.host_counters () in
    after - before
  in
  let deadlocked () =
    match
      Sched.run (fun () ->
          Sched.delay 30;
          let m = Sync.Mutex.create () in
          Sync.Mutex.lock m;
          Sync.Mutex.lock m)
    with
    | () -> Alcotest.fail "no deadlock"
    | exception Sched.Deadlock _ -> ()
  in
  let (), d = Trace.collect deadlocked in
  checki "span is the run plus its gap" 1_030 d.Trace.d_span;
  checki "host events booked once"
    (events (fun () -> Sched.run (fun () -> Sched.delay 30)))
    (events deadlocked)

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

(* The outcome in a result cell, as text: "ok" or the [Failure] message. *)
let outcome c =
  match Sync.Ivar.read c with
  | Ok () -> "ok"
  | Error (Failure m) -> m
  | Error e -> Printexc.to_string e

(* One watcher per cell, spawned in reverse so that the log follows the
   order the cells are filled in, not the order the watchers parked. *)
let watch cells =
  let log = ref [] in
  for i = Array.length cells - 1 downto 0 do
    ignore
      (Sched.spawn (fun () ->
           ignore (Sync.Ivar.read cells.(i));
           log := (i, Sched.now ()) :: !log))
  done;
  log

(* Submitter [i] arrives at [arrive.(i)]; every round takes 100 ns. *)
let run_group ?(fail_on = -1) arrive =
  let g = Sync.Group.create () in
  let rounds = ref [] in
  let round batch =
    rounds := batch :: !rounds;
    Sched.delay 100;
    if List.mem fail_on batch then failwith "boom"
  in
  let cells = Array.map (fun _ -> Sync.Ivar.create ()) arrive in
  let log = watch cells in
  let ts =
    Array.to_list
      (Array.mapi
         (fun i at ->
           Sched.spawn (fun () ->
               Sched.delay at;
               Sync.Group.submit g ~round i cells.(i)))
         arrive)
  in
  List.iter Sched.join ts;
  (g, round, List.rev !rounds, cells, List.rev !log)

let test_group_fifo_rounds () =
  Sched.run (fun () ->
      let _, _, rounds, cells, log = run_group [| 0; 10; 20; 30; 150 |] in
      Alcotest.(check (list (list int)))
        "arrivals during a round join the next, in arrival order"
        [ [ 0 ]; [ 1; 2; 3 ]; [ 4 ] ] rounds;
      Alcotest.(check (list (pair int int)))
        "cells fill in arrival order as each round ends"
        [ (0, 100); (1, 200); (2, 200); (3, 200); (4, 300) ] log;
      Array.iter (fun c -> checks "ok" "ok" (outcome c)) cells)

let test_group_failure () =
  Sched.run (fun () ->
      let g, round, rounds, cells, log =
        run_group ~fail_on:1 [| 0; 10; 20; 150 |]
      in
      Alcotest.(check (list (list int)))
        "the failed round ends the run; item 3 never reaches a round"
        [ [ 0 ]; [ 1; 2 ] ] rounds;
      Alcotest.(check (list string))
        "the failure reaches its batch and the queue behind it"
        [ "ok"; "boom"; "boom"; "boom" ]
        (Array.to_list (Array.map outcome cells));
      Alcotest.(check (list (pair int int)))
        "failed cells fill in arrival order"
        [ (0, 100); (1, 200); (2, 200); (3, 200) ] log;
      (* The group is idle again: the next caller leads a fresh round. *)
      let c = Sync.Ivar.create () in
      Sync.Group.submit g ~round 7 c;
      checks "works again after a failure" "ok" (outcome c);
      checki "led by the caller" 300 (Sched.now ()))

let test_fork_join_first_failure () =
  let t, raised =
    Sched.run (fun () ->
        let job delay fail () =
          Sched.delay delay;
          if fail <> "" then failwith fail
        in
        let raised =
          try
            Sync.fork_join [ job 30 "first"; job 10 "second"; job 50 "" ];
            ""
          with Failure m -> m
        in
        (Sched.now (), raised))
  in
  checks "first failure in list order, not in time" "first" raised;
  checki "waits for every job" 50 t

let test_fork_join_empty () =
  Sched.run (fun () ->
      Sync.fork_join [];
      checki "no time passes" 0 (Sched.now ());
      checki "no tid taken" 1 (Sched.tid_int (Sched.spawn ignore)))

(* A lone job runs in the caller's fiber, yet is charged and numbered
   as the thread it stands for. *)
let test_fork_join_single () =
  Sched.run (fun () ->
      Sched.with_bucket Probe.Bucket.io (fun () ->
          Sync.fork_join
            [ (fun () ->
                Sched.cpu 10;
                Sched.delay 5) ];
          Sched.cpu 1);
      checki "clock" 16 (Sched.now ());
      Alcotest.(check (list (pair string int)))
        "the job is charged to user, the caller to io"
        [ ("io", 1); ("user", 10) ] (Sched.account_report ());
      checki "the job's tid stays taken" 2 (Sched.tid_int (Sched.spawn ignore));
      let raised =
        try Sync.fork_join [ (fun () -> failwith "lone") ]; ""
        with Failure m -> m
      in
      checks "its failure is raised" "lone" raised)

(* --- fork_join against its reference ---

   The reference is the definition: one [Sched.spawn] per job in list
   order, each outcome in an [Ivar], awaited in list order. A scenario
   runs under both and everything simulated is compared: the log of
   (event, clock) in execution order, the tids of threads spawned during
   and after the call, the exception raised, [Sched.account_report] and
   the final clock. [Sched.self] inside a job is deliberately not
   observed: an inline job runs in the caller's fiber, the one intended
   difference. *)

type step =
  | Delay of int
  | Cpu of int
  | Lock of int (* hold the shared mutex this long *)
  | Sem of int (* hold one of the semaphore's two permits this long *)
  | Spawn of int (* a thread that sleeps this long, then logs *)
  | Nested of step list list (* a fork_join of these jobs *)
  | Raise

type scenario = {
  jobs : step list list; (* 1-3 jobs *)
  lead : int; (* the caller sleeps this long before the call *)
  in_io : bool; (* the call is made inside [with_bucket io] *)
  due_now : bool; (* a thread is spawned just before the call *)
  bystanders : (int * step) list; (* (wake-up time, action) *)
}

let ref_fork_join jobs =
  let ivs =
    List.map
      (fun job ->
        let iv = Sync.Ivar.create () in
        ignore
          (Sched.spawn (fun () ->
               Sync.Ivar.fill iv
                 (match job () with () -> Ok () | exception e -> Error e)));
        iv)
      jobs
  in
  let first =
    List.fold_left
      (fun first iv ->
        match (Sync.Ivar.read iv, first) with
        | Error e, None -> Some e
        | _ -> first)
      None ivs
  in
  Option.iter raise first

let run_scenario fork_join sc =
  Sched.run (fun () ->
      let log = ref [] in
      let note s = log := (s, Sched.now ()) :: !log in
      let threads = ref [] in
      let spawn name body =
        let t = Sched.spawn body in
        threads := t :: !threads;
        note (Printf.sprintf "%s spawns tid %d" name (Sched.tid_int t))
      in
      let m = Sync.Mutex.create () and sem = Sync.Semaphore.create 2 in
      let rec step name = function
        | Delay d -> Sched.delay d
        | Cpu d -> Sched.cpu d
        | Lock d -> Sync.Mutex.with_lock m (fun () -> Sched.delay d)
        | Sem d ->
          Sync.Semaphore.acquire sem;
          Sched.delay d;
          Sync.Semaphore.release sem
        | Spawn d ->
          spawn name (fun () ->
              Sched.delay d;
              note (name ^ "'s thread"))
        | Nested jobs -> call name jobs
        | Raise -> failwith name
      and job name steps () =
        List.iteri
          (fun i s ->
            let name = Printf.sprintf "%s.%d" name i in
            step name s;
            note name)
          steps
      and call name jobs =
        fork_join (List.mapi (fun i js -> job (Printf.sprintf "%s/%d" name i) js) jobs)
      in
      List.iteri
        (fun i (at, s) ->
          let name = Printf.sprintf "bystander %d" i in
          spawn name (fun () ->
              Sched.delay at;
              note name;
              (try step name s with Failure _ -> ());
              note (name ^ " done")))
        sc.bystanders;
      Sched.delay sc.lead;
      if sc.due_now then spawn "caller" (fun () -> note "due now");
      let body () =
        match call "job" sc.jobs with
        | () -> note "returns"
        | exception Failure msg -> note ("raises " ^ msg)
      in
      if sc.in_io then Sched.with_bucket Probe.Bucket.io body else body ();
      spawn "caller" ignore;
      List.iter Sched.join !threads;
      note "end";
      (List.rev !log, Sched.account_report ()))

let print_scenario sc =
  let rec step = function
    | Delay d -> Printf.sprintf "delay %d" d
    | Cpu d -> Printf.sprintf "cpu %d" d
    | Lock d -> Printf.sprintf "lock %d" d
    | Sem d -> Printf.sprintf "sem %d" d
    | Spawn d -> Printf.sprintf "spawn %d" d
    | Nested js -> Printf.sprintf "fork_join %s" (jobs js)
    | Raise -> "raise"
  and jobs js =
    "["
    ^ String.concat "; "
        (List.map (fun j -> "[" ^ String.concat ", " (List.map step j) ^ "]") js)
    ^ "]"
  in
  Printf.sprintf "jobs %s lead %d in_io %b due_now %b bystanders [%s]"
    (jobs sc.jobs) sc.lead sc.in_io sc.due_now
    (String.concat "; "
       (List.map (fun (at, s) -> Printf.sprintf "%d: %s" at (step s)) sc.bystanders))

let gen_scenario =
  let open QCheck.Gen in
  (* Multiples of 5 ns, so that wake-ups tie often. *)
  let ns lo hi = map (fun k -> 5 * k) (int_range lo hi) in
  let rec step depth =
    frequency
      ([ (3, map (fun d -> Delay d) (ns 0 6));
         (3, map (fun d -> Cpu d) (ns 1 6));
         (2, map (fun d -> Lock d) (ns 1 4));
         (2, map (fun d -> Sem d) (ns 1 4));
         (1, map (fun d -> Spawn d) (ns 0 4));
         (1, return Raise) ]
      @ if depth = 0 then [] else [ (1, map (fun js -> Nested js) (jobs (depth - 1))) ])
  and jobs depth = list_size (int_range 1 3) (list_size (int_range 0 4) (step depth)) in
  let* jobs = jobs 1 in
  let* lead = ns 0 2 in
  let* in_io = bool in
  let* due_now = frequency [ (1, return true); (3, return false) ] in
  let* bystanders = list_size (int_range 0 3) (pair (ns 0 10) (step 0)) in
  return { jobs; lead; in_io; due_now; bystanders }

let prop_fork_join_reference =
  QCheck.Test.make ~count:400 ~name:"fork_join = spawn + Ivar per job"
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun sc ->
      let got = run_scenario Sync.fork_join sc
      and want = run_scenario ref_fork_join sc in
      if got = want then true
      else
        let show (log, acct) =
          String.concat "\n"
            (List.map (fun (s, t) -> Printf.sprintf "  %6d %s" t s) log
            @ List.map (fun (b, v) -> Printf.sprintf "  %s=%d" b v) acct)
        in
        QCheck.Test.fail_reportf "fork_join:\n%s\nreference:\n%s" (show got)
          (show want))

let test_metrics () =
  let x = Probe.make Probe.Host "x" in
  let lat = Probe.make Probe.Host "lat" and op = Probe.make Probe.Host "op" in
  let count, samples, lat_mean, op_mean =
    Sched.run (fun () ->
        Metrics.incr x;
        Metrics.incr ~by:4 x;
        Metrics.add_sample lat 100;
        Metrics.add_sample lat 300;
        Metrics.timed op (fun () -> Sched.delay 77);
        (Metrics.count x, Metrics.samples lat, Metrics.mean_ns lat,
         Metrics.mean_ns op))
  in
  checki "counter" 5 count;
  checki "samples" 2 samples;
  Alcotest.(check (float 0.01)) "mean" 200.0 lat_mean;
  Alcotest.(check (float 0.01)) "timed" 77.0 op_mean

(* --- Metrics: per-run columns, nesting, histogram counts --- *)

(* Every probe's counter and histogram, as this run sees them. *)
let all_metrics () =
  List.init (Probe.count ()) (fun i ->
      let p = Probe.of_id i in
      (Metrics.count p, Metrics.hist p <> None))

let test_metrics_fresh_per_run () =
  let recorded =
    Sched.run (fun () ->
        Metrics.add_sample Probe.db_write 100;
        Metrics.incr ~by:3 Probe.db_fsync;
        Metrics.counters ())
  in
  Alcotest.(check (list (pair string int)))
    "first run recorded" [ ("fsync", 3); ("write", 1) ] recorded;
  let counters, columns = Sched.run (fun () -> (Metrics.counters (), all_metrics ())) in
  Alcotest.(check (list (pair string int))) "second run: no counter" [] counters;
  checkb "second run: every counter 0, no histogram" true
    (List.for_all (fun (n, h) -> n = 0 && not h) columns);
  checkb "second run: no db_write samples" true
    (Sched.run (fun () -> Metrics.samples Probe.db_write = 0))

let test_metrics_outside_run () =
  let raises what f =
    checkb what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "incr" (fun () -> Metrics.incr Probe.db_fsync);
  raises "count" (fun () -> ignore (Metrics.count Probe.db_fsync));
  (* A finished run leaves nothing behind to read. *)
  Sched.run (fun () -> Metrics.incr Probe.db_fsync);
  raises "count after a run" (fun () -> ignore (Metrics.count Probe.db_fsync))

let test_metrics_timed_nesting () =
  Sched.run (fun () ->
      Metrics.timed Probe.db_write (fun () ->
          Sched.delay 100;
          Metrics.timed Probe.db_fsync (fun () -> Sched.delay 40);
          Sched.delay 10);
      Alcotest.(check (float 0.01))
        "outer includes inner" 150.0
        (Metrics.mean_ns Probe.db_write);
      Alcotest.(check (float 0.01)) "inner" 40.0 (Metrics.mean_ns Probe.db_fsync);
      checki "one outer sample" 1 (Metrics.samples Probe.db_write);
      checki "one inner sample" 1 (Metrics.samples Probe.db_fsync))

let test_metrics_histogram_sample_counts () =
  Sched.run (fun () ->
      for i = 1 to 64 do
        Metrics.add_sample Probe.db_read (i * 10)
      done;
      checki "samples" 64 (Metrics.samples Probe.db_read);
      (match Metrics.hist Probe.db_read with
      | None -> Alcotest.fail "histogram missing"
      | Some h -> checki "hist count" 64 (Msnap_util.Histogram.count h));
      (* add_sample also bumps the implicit op counter of the same name. *)
      checki "implicit counter" 64 (Metrics.count Probe.db_read))

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
  checkb "off outside every scope" false (Trace.is_on ());
  let (), d =
    Trace.collect_as (Trace.config ()) (fun () ->
        Sched.run (fun () ->
            Trace.instant Probe.vm_write_fault;
            Trace.complete Probe.db_write ~dur:10))
  in
  checki "no events recorded" 0 d.Trace.d_count;
  checkb "no summary" true (d.Trace.d_summary = []);
  checki "no timeline" 0 d.Trace.d_span

let test_trace_span_records () =
  let (), d =
    Trace.collect (fun () ->
        Sched.run (fun () ->
            Trace.with_span Probe.fs_fsync (fun () -> Sched.delay 120)))
  in
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
  let (a, b), _ =
    Trace.collect (fun () ->
        Sched.run (fun () ->
            let a = Trace.new_flow () in
            (a, Trace.new_flow ())))
  in
  checkb "nonzero and distinct" true (a <> 0 && b <> 0 && a <> b)

(* One traced run: a 30 ns delay, then a flow-start instant. *)
let traced_instant () =
  Trace.collect (fun () ->
      Sched.run (fun () ->
          Sched.delay 30;
          let flow = Trace.new_flow () in
          Trace.instant Probe.msnap_first_fault ~flow:(flow, Trace.Flow_start);
          flow))

let test_trace_scopes_start_at_zero () =
  Sched.run (fun () -> Sched.delay 500);
  let f1, d1 = traced_instant () in
  Sched.run (fun () -> Sched.delay 700);
  let f2, d2 = traced_instant () in
  List.iter
    (fun (what, flow, d) ->
      let evs = Trace.events d in
      checki (what ^ ": flow") 1 flow;
      checki (what ^ ": first event at 0") 0
        (Array.fold_left (fun m e -> min m e.Trace.ev_ts) max_int evs);
      checkb (what ^ ": the instant at 30") true
        (Array.exists
           (fun e ->
             e.Trace.ev_ts = 30 && e.Trace.ev_flow = Some (1, Trace.Flow_start))
           evs);
      checki (what ^ ": span is the run plus its gap") 1_030 d.Trace.d_span)
    [ ("first scope", f1, d1); ("second scope", f2, d2) ]

let test_trace_summary_reconciles_with_buckets () =
  let report, d =
    Trace.collect (fun () ->
        Sched.run (fun () ->
            Metrics.timed Probe.db_fsync (fun () ->
                Sched.with_bucket Probe.Bucket.fsync (fun () -> Sched.cpu 500));
            Sched.account_report ()))
  in
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
  let (), d =
    Trace.collect (fun () ->
        Sched.run (fun () ->
            let flow = Trace.new_flow () in
            Trace.instant Probe.msnap_first_fault ~flow:(flow, Trace.Flow_start);
            Trace.with_span Probe.db_write (fun () -> Sched.delay 10);
            Trace.instant Probe.msnap_durable ~flow:(flow, Trace.Flow_end)))
  in
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
  let (), d =
    Trace.collect ~limit:8 (fun () ->
        Sched.run (fun () ->
            for _ = 1 to 20 do
              Trace.complete Probe.db_write ~dur:5
            done))
  in
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

let test_cpu_fast_path_pops_no_events () =
  (* A lone thread's cpu charges find nothing queued at or before their
     target, so the fast path advances the clock inline: the run pops
     only the thread's spawn. A yield always goes through the queue. *)
  let events f =
    let e0, _, _ = Sched.host_counters () in
    Sched.run f;
    let e1, _, _ = Sched.host_counters () in
    e1 - e0
  in
  checki "cpu charges absorbed" 1
    (events (fun () ->
         for _ = 1 to 50 do
           Sched.cpu 10
         done));
  checkb "yields popped as events" true
    (events (fun () ->
         for _ = 1 to 50 do
           Sched.yield ()
         done)
    >= 50)

(* --- waker pooling --- *)

let test_waker_pool_reuse () =
  (* A semaphore ping-pong parks thousands of times, but only a handful
     of threads are ever parked at once: nearly every park must be served
     from the per-engine waker free list, not a fresh allocation. *)
  let _, al0, re0 = Sched.host_counters () in
  Sched.run (fun () ->
      let ping = Sync.Semaphore.create 0 and pong = Sync.Semaphore.create 0 in
      let a =
        Sched.spawn ~name:"ping" (fun () ->
            for _ = 1 to 2_000 do
              Sync.Semaphore.release ping;
              Sync.Semaphore.acquire pong
            done)
      in
      let b =
        Sched.spawn ~name:"pong" (fun () ->
            for _ = 1 to 2_000 do
              Sync.Semaphore.acquire ping;
              Sync.Semaphore.release pong
            done)
      in
      Sched.join a;
      Sched.join b);
  let _, al1, re1 = Sched.host_counters () in
  checkb "few fresh wakers" true (al1 - al0 <= 8);
  checkb "parks served from the free list" true (re1 - re0 > 1_000)

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

(* --- Cell: the splice contract ---

   A cell records its trace under its own scope, whose dump
   [Cell.force] splices into the forcing domain's scope. The properties
   below must hold whether the body runs inline at force (0 pool
   workers) or on a worker domain. *)

let cell_op = Probe.make Probe.Host "cell.op"

exception Cell_boom

(* Everything a dump recorded under [cell_op]. *)
let recorded d =
  let summary =
    List.filter_map
      (fun (_, name, n, total, mx) ->
        if name = Probe.name cell_op then
          Some (Printf.sprintf "n=%d total=%d max=%d" n total mx)
        else None)
      d.Trace.d_summary
  in
  Printf.sprintf "summary=[%s]" (String.concat "; " summary)

(* One timed 50 ns section: a counter bump, a histogram sample and a
   trace span. Returns the run's samples under [cell_op]. *)
let timed_op () =
  Sched.run (fun () ->
      Metrics.timed cell_op (fun () -> Sched.delay 50);
      Metrics.samples cell_op)

let one_op = "summary=[n=1 total=50 max=50]"
let no_op = "summary=[]"

let at_workers f =
  List.iter
    (fun workers ->
      Taskpool.shutdown ();
      Taskpool.ensure_workers workers;
      Fun.protect ~finally:Taskpool.shutdown (fun () ->
          f (Printf.sprintf "%d workers" workers)))
    [ 0; 2 ]

let test_cell_force_twice_merges_once () =
  at_workers (fun label ->
      let (), once =
        Trace.collect (fun () ->
            let c = Cell.submit (fun () -> ignore (timed_op ()); 7) in
            checki (label ^ ": value") 7 (Cell.force c);
            let (), again =
              Trace.collect (fun () ->
                  checki (label ^ ": value again") 7 (Cell.force c))
            in
            checks (label ^ ": second force merges nothing") no_op
              (recorded again))
      in
      checks (label ^ ": merged once") one_op (recorded once))

let test_cell_shared_handles_merge_once_each () =
  at_workers (fun label ->
      let runs = Atomic.make 0 in
      let (), first =
        Trace.collect (fun () ->
            let c =
              Cell.submit (fun () ->
                  Atomic.incr runs;
                  ignore (timed_op ());
                  7)
            in
            let c' = Cell.share c in
            checki (label ^ ": value") 7 (Cell.force c);
            let v, second =
              Trace.collect (fun () ->
                  let v = Cell.force c' in
                  ignore (Cell.force c');
                  v)
            in
            checki (label ^ ": shared value") 7 v;
            checks (label ^ ": second scope merged once") one_op
              (recorded second);
            checki (label ^ ": value again") 7 (Cell.force c))
      in
      checks (label ^ ": first scope merged once, untouched by the second")
        one_op (recorded first);
      checki (label ^ ": body ran once") 1 (Atomic.get runs))

(* A cell submitted outside every recording scope runs under its own
   non-recording scope, so forcing it inside a traced scope (inline:
   the forcer's domain runs the body) leaves that scope's dump as if the
   cell had never been there. *)
let test_cell_untraced_forced_in_traced_scope () =
  Taskpool.shutdown ();
  let traced_run () =
    Sched.run (fun () ->
        Sched.delay 20;
        Trace.instant cell_op)
  in
  let c = Cell.submit (fun () -> ignore (timed_op ())) in
  let (), with_cell =
    Trace.collect (fun () ->
        traced_run ();
        Cell.force c;
        traced_run ())
  in
  let (), without =
    Trace.collect (fun () ->
        traced_run ();
        traced_run ())
  in
  checks "no cell events" "summary=[n=2 total=0 max=0]" (recorded with_cell);
  checki "events" without.Trace.d_count with_cell.Trace.d_count;
  checkb "timestamps" true
    (Array.sub with_cell.Trace.d_ts 0 with_cell.Trace.d_count
    = Array.sub without.Trace.d_ts 0 without.Trace.d_count);
  checkb "summary" true (with_cell.Trace.d_summary = without.Trace.d_summary);
  checki "span" without.Trace.d_span with_cell.Trace.d_span

(* A cell's metrics stay in the run that recorded them: the body
   returns its own figures, and the forcing domain's next run starts
   with none. *)
let test_metrics_cell_samples_stay_in_cell () =
  at_workers (fun label ->
      let (), d =
        Trace.collect (fun () ->
            let c = Cell.submit timed_op in
            checki (label ^ ": the cell's run saw its sample") 1 (Cell.force c);
            checki (label ^ ": the forcer's next run has none") 0
              (Sched.run (fun () ->
                   Metrics.samples cell_op + Metrics.count cell_op)))
      in
      checks (label ^ ": the trace was merged") one_op (recorded d))

let test_cell_raise_leaves_forcer_untouched () =
  at_workers (fun label ->
      let (), before = Trace.collect (fun () -> ignore (timed_op ())) in
      let (), after =
        Trace.collect (fun () ->
            ignore (timed_op ());
            let c =
              Cell.submit (fun () ->
                  ignore (timed_op ());
                  raise Cell_boom)
            in
            for i = 1 to 2 do
              checkb
                (Printf.sprintf "%s, force %d: re-raises" label i)
                true
                (match Cell.force c with
                | () -> false
                | exception Cell_boom -> true)
            done)
      in
      checks (label ^ ": forcer untouched") (recorded before) (recorded after);
      checki (label ^ ": timeline untouched") before.Trace.d_span
        after.Trace.d_span)

(* --- end-of-run hooks --- *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Hooks run newest first once the run, spawned threads included, has
   finished, and the engine is gone by then: reading the clock or
   registering another hook from a hook raises. *)
let test_on_exit_newest_first () =
  let log = ref [] in
  let note s () = log := s :: !log in
  let in_hook = ref [] in
  let v =
    Sched.run (fun () ->
        Sched.on_exit (note "a");
        let t =
          Sched.spawn (fun () ->
              Sched.delay 10;
              Sched.on_exit (note "c"))
        in
        Sched.on_exit (note "b");
        Sched.on_exit (fun () ->
            in_hook :=
              [ ("running", Sched.running ());
                ("now raises", raises_invalid Sched.now);
                ("on_exit raises",
                 raises_invalid (fun () -> Sched.on_exit ignore)) ]);
        Sched.join t;
        checkb "nothing ran inside the run" true (!log = []);
        7)
  in
  checki "value" 7 v;
  checks "newest first" "c,b,a" (String.concat "," (List.rev !log));
  Alcotest.(check (list (pair string bool)))
    "the engine is gone"
    [ ("running", false); ("now raises", true); ("on_exit raises", true) ]
    !in_hook

(* A run that raises runs none of its hooks: neither a thread failure
   nor a deadlock. *)
let test_on_exit_dropped_on_failure () =
  let fired = ref 0 in
  let hook () = incr fired in
  checkb "thread failure re-raised" true
    (match
       Sched.run (fun () ->
           Sched.on_exit hook;
           let t =
             Sched.spawn (fun () ->
                 Sched.on_exit hook;
                 Sched.delay 5;
                 failwith "boom")
           in
           Sched.join t)
     with
    | () -> false
    | exception Failure _ -> true);
  checkb "deadlock re-raised" true
    (match
       Sched.run (fun () ->
           Sched.on_exit hook;
           let m = Sync.Mutex.create () in
           Sync.Mutex.lock m;
           Sync.Mutex.lock m)
     with
    | () -> false
    | exception Sched.Deadlock _ -> true);
  checki "no hook ran" 0 !fired

let test_on_exit_outside_run () =
  checkb "before any run" true (raises_invalid (fun () -> Sched.on_exit ignore));
  Sched.run (fun () -> Sched.on_exit ignore);
  checkb "after a run" true (raises_invalid (fun () -> Sched.on_exit ignore))

(* Hooks belong to the run that registered them: one a raising run
   dropped, or one that already fired, never fires at the end of the
   next run on the same domain. *)
let test_on_exit_not_carried_over () =
  let fired = ref [] in
  let hook s () = fired := s :: !fired in
  (match
     Sched.run (fun () ->
         Sched.on_exit (hook "dropped");
         failwith "boom")
   with
  | () -> ()
  | exception Failure _ -> ());
  Sched.run (fun () -> Sched.on_exit (hook "first"));
  Sched.run (fun () -> Sched.on_exit (hook "second"));
  Sched.run ignore;
  checks "each fired once, with its own run" "first,second"
    (String.concat "," (List.rev !fired))

(* A cell body's runs tear down as each returns, on whichever domain
   runs the body, before the body goes on. *)
let test_on_exit_cell_body () =
  at_workers (fun label ->
      let fired = Atomic.make 0 in
      let c =
        Cell.submit (fun () ->
            Sched.run (fun () ->
                Sched.on_exit (fun () -> Atomic.incr fired);
                Sched.delay 10);
            let after_first = Atomic.get fired in
            Sched.run (fun () -> Sched.on_exit (fun () -> Atomic.incr fired));
            (after_first, Atomic.get fired))
      in
      let after_first, after_second = Cell.force c in
      checki (label ^ ": first run's hook fired as it returned") 1 after_first;
      checki (label ^ ": second run's hook fired once") 2 after_second;
      Sched.run ignore;
      checki (label ^ ": the forcer's run fires none") 2 (Atomic.get fired))

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
          tc "a deadlocked run finalizes once" test_deadlock_finalizes_once;
          tc "exception" test_exception_propagates;
          tc "child exception" test_child_exception_propagates;
          tc "reusable after failure" test_run_not_nested_state;
          tc "delay fast path ordering" test_delay_fast_path_ordering;
          tc "cpu fast path pops no events" test_cpu_fast_path_pops_no_events;
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
        ] );
      ( "sync",
        [
          tc "mutex exclusion" test_mutex_mutual_exclusion;
          tc "unlock unlocked" test_mutex_unlock_unlocked;
          tc "cond broadcast" test_condition_broadcast;
          tc "semaphore" test_semaphore_bounds;
          tc "ivar" test_ivar;
          tc "group: fifo rounds" test_group_fifo_rounds;
          tc "group: failure fails the queue, then recovers" test_group_failure;
          tc "fork_join: first failure in list order"
            test_fork_join_first_failure;
          tc "fork_join: an empty list" test_fork_join_empty;
          tc "fork_join: a single job" test_fork_join_single;
          QCheck_alcotest.to_alcotest prop_fork_join_reference;
        ] );
      ( "metrics",
        [
          tc "counters and samples" test_metrics;
          tc "a new run starts with none" test_metrics_fresh_per_run;
          tc "outside a run raises" test_metrics_outside_run;
          tc "timed nesting" test_metrics_timed_nesting;
          tc "histogram sample counts" test_metrics_histogram_sample_counts;
          tc "a cell's samples stay in the cell"
            test_metrics_cell_samples_stay_in_cell;
        ] );
      ( "trace",
        [
          tc "disabled records nothing" test_trace_disabled_no_events;
          tc "span records probe and dur" test_trace_span_records;
          tc "flow ids unique" test_trace_flow_ids_unique;
          tc "each scope starts at ts 0 and flow 1"
            test_trace_scopes_start_at_zero;
          tc "summary reconciles buckets" test_trace_summary_reconciles_with_buckets;
          tc "export json shape" test_trace_export_json;
          tc "summary exact past cap" test_trace_buffer_cap_keeps_summary_exact;
        ] );
      ( "on_exit",
        [
          tc "hooks run newest first after the run" test_on_exit_newest_first;
          tc "a raising run drops every hook" test_on_exit_dropped_on_failure;
          tc "outside a run raises" test_on_exit_outside_run;
          tc "a hook never fires in the next run" test_on_exit_not_carried_over;
          tc "a cell body's hooks fire with its own run" test_on_exit_cell_body;
        ] );
      ( "cell",
        [
          tc "force twice merges once" test_cell_force_twice_merges_once;
          tc "raising body leaves the forcer untouched"
            test_cell_raise_leaves_forcer_untouched;
          tc "shared handles merge once each"
            test_cell_shared_handles_merge_once_each;
          tc "an untraced cell leaves a traced scope unchanged"
            test_cell_untraced_forced_in_traced_scope;
        ] );
    ]
