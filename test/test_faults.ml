(* The crash-schedule checker's foundation: offline image reconstruction
   must be byte-identical to a live power failure at the same boundary,
   and recording must never perturb the simulation it observes. *)

module Sched = Msnap_sim.Sched
module Rng = Msnap_util.Rng
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Device = Msnap_blockdev.Device
module Stripe = Msnap_blockdev.Stripe
module Slice = Msnap_util.Slice
module Record = Msnap_blockdev.Record
module Image = Msnap_faults.Image
module Checker = Msnap_faults.Checker
module History = Msnap_faults.History

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk_disk () = Device.of_disk (Disk.create ~size:(Size.mib 4) ())

let mk_stripe () = Device.testbed ~mib:2

(* A deterministic raw-device script with genuine concurrency: three
   writers with interleaved in-flight commands, so a crash at any
   boundary tears a non-trivial set of outstanding writes. Flushes are
   serialized through one mutex ([flush] drains every device channel,
   so two concurrent drains would deadlock — same discipline the file
   systems use). Every writer swallows [Powered_off]: the script runs
   to completion whether or not a live crash fires mid-way. *)
let script dev =
  let sectors = Device.size dev / 512 in
  let flush_lock = Msnap_sim.Sync.Mutex.create () in
  let writer id =
    let rng = Rng.create (40 + id) in
    try
      for i = 0 to 79 do
        let nsec = 1 + Rng.int rng 8 in
        let off = 512 * Rng.int rng (sectors - nsec) in
        let b = Bytes.make (512 * nsec) (Char.chr (Char.code 'a' + ((id + i) mod 26))) in
        Device.write_slice dev ~off (Slice.of_bytes b);
        if i mod 9 = id then
          Msnap_sim.Sync.Mutex.with_lock flush_lock (fun () ->
              Device.flush dev)
      done
    with Disk.Powered_off -> ()
  in
  let ts = List.init 3 (fun id -> Sched.spawn (fun () -> writer id)) in
  List.iter Sched.join ts;
  try Device.barrier dev with Disk.Powered_off -> ()

(* Raw media of every member disk, concatenated in member order. *)
let snapshot dev =
  List.map
    (fun d -> Disk.peek d ~off:0 ~len:(Disk.size d))
    (Array.to_list (Device.disks dev))

(* The crash-free recording pass: the schedule history plus the final
   media image and final virtual time. *)
let record_pass mk =
  Sched.run (fun () ->
      let dev = mk () in
      let record = Record.create () in
      Device.attach_record dev record;
      script dev;
      Device.detach_record dev;
      let img = snapshot dev in
      let now = Sched.now () in
      Device.dispose dev;
      (record, img, now))

(* A live armed crash: same script, recorder set to fire the power
   failure the instant boundary [prefix] lands. *)
let live_pass mk ~prefix ~torn_seed =
  Sched.run (fun () ->
      let dev = mk () in
      let record = Record.create () in
      Device.attach_record dev record;
      Record.arm record ~prefix ~torn_seed;
      script dev;
      let fired = Record.fired record in
      if fired then Device.restore_power dev;
      Device.detach_record dev;
      let img = snapshot dev in
      Device.dispose dev;
      (fired, img))

(* Offline reconstruction of the same crash from the recorded run. *)
let offline_pass mk record ~prefix ~torn_seed =
  Sched.run (fun () ->
      let dev = mk () in
      Image.materialize record ~prefix ~torn_seed dev;
      let img = snapshot dev in
      Device.dispose dev;
      img)

let first_diff a b =
  let rec go m =
    match m with
    | [] -> None
    | (i, x, y) :: tl ->
      if Bytes.equal x y then go tl
      else
        let n = min (Bytes.length x) (Bytes.length y) in
        let off = ref 0 in
        while !off < n && Bytes.get x !off = Bytes.get y !off do incr off done;
        Some (i, !off)
  in
  go (List.mapi (fun i (x, y) -> (i, x, y)) (List.combine a b))

(* The parity property pinning [Image.materialize]: for every boundary
   prefix and torn seed, the reconstructed image equals the live
   armed-crash image byte for byte. *)
let prop_image_parity name mk =
  let record, _, _ = record_pass mk in
  let boundaries = Record.boundaries record in
  let open QCheck in
  let gen =
    Gen.(
      let* prefix = int_range 0 (boundaries - 1) in
      let* torn_seed = int_range 0 999 in
      return (prefix, torn_seed))
  in
  QCheck.Test.make ~count:60
    ~name:(name ^ ": materialize = live fail_power at every boundary")
    (make gen)
    (fun (prefix, torn_seed) ->
      let fired, live = live_pass mk ~prefix ~torn_seed in
      let offline = offline_pass mk record ~prefix ~torn_seed in
      if not fired then
        QCheck.Test.fail_reportf "arm(%d,%d) never fired" prefix torn_seed;
      match first_diff live offline with
      | None -> true
      | Some (m, off) ->
        QCheck.Test.fail_reportf
          "prefix=%d torn_seed=%d: member %d differs at byte %d" prefix
          torn_seed m off)

(* Recording is host-only observability: a recorded run must leave
   byte-identical media and the identical virtual clock behind. *)
let test_recording_is_invisible () =
  let unrecorded mk =
    Sched.run (fun () ->
        let dev = mk () in
        script dev;
        let img = snapshot dev in
        let now = Sched.now () in
        Device.dispose dev;
        (img, now))
  in
  List.iter
    (fun (name, mk) ->
      let _, rec_img, rec_now = record_pass mk in
      let plain_img, plain_now = unrecorded mk in
      checki (name ^ " virtual time unchanged by recording") plain_now rec_now;
      checkb (name ^ " media unchanged by recording") true
        (first_diff rec_img plain_img = None))
    [ ("disk", mk_disk); ("stripe", mk_stripe) ]

let test_record_boundaries () =
  let record, _, _ = record_pass mk_stripe in
  (* 3 writers x 80 writes, each commit one boundary, plus flushes. *)
  checkb "every write commit is a boundary" true
    (Record.boundaries record > 240);
  checkb "commands recorded" true (Record.commands record >= 240)

let test_materialize_prefix_range () =
  let record, _, _ = record_pass mk_disk in
  let boundaries = Record.boundaries record in
  Sched.run (fun () ->
      let dev = mk_disk () in
      checkb "out-of-range prefix rejected" true
        (match Image.materialize record ~prefix:boundaries ~torn_seed:1 dev with
        | exception Invalid_argument _ -> true
        | () -> false);
      Device.dispose dev)

(* Full-prefix reconstruction = the crash-free final image (modulo the
   torn tails of commands that never committed, which the barrier at
   script end drains — so there are none). *)
let test_materialize_full_prefix () =
  List.iter
    (fun (name, mk) ->
      let record, final, _ = record_pass mk in
      let img =
        offline_pass mk record
          ~prefix:(Record.boundaries record - 1)
          ~torn_seed:7
      in
      checkb (name ^ " full prefix = final image") true
        (first_diff img final = None))
    [ ("disk", mk_disk); ("stripe", mk_stripe) ]

(* Power cut under [Sync.fork_join]'s inline job: a stripe command's
   first member job runs in the caller's fiber (nothing else is due when
   it is issued) and is parked in [Disk.service] when the power goes. A
   ticker's 512-byte write on the last member commits mid-command, and
   the recorder, armed at that boundary, cuts power on every member.
   The command covers stripe bytes [32K, 128K): 32 KiB on member 0 (the
   inline job) and, on two members, 64 KiB on member 1 (forked), which
   finishes last. *)
let inline_cut ~members ~read () =
  let unit_size = Size.kib 64 in
  let off = Size.kib 32 and len = Size.kib (if members = 1 then 32 else 96) in
  let tick_off = unit_size * (if members = 1 then 4 else 3) in
  let mk () =
    Device.of_stripe
      (Stripe.create ~unit_size
         (List.init members (fun i ->
              Disk.create ~name:(Printf.sprintf "m%d" i) ~size:(Size.kib 512) ())))
  in
  let payload = Rng.bytes (Rng.create members) len in
  (* Returns the boundary of the ticker's commit, the command's outcome
     and when it reached the caller, and the media. *)
  let pass ?arm () =
    Sched.run (fun () ->
        let dev = mk () in
        let record = Record.create () in
        Device.attach_record dev record;
        Device.write_slice dev ~off:0 (Slice.of_bytes (Bytes.make (Size.kib 128) 'o'));
        Option.iter (fun prefix -> Record.arm record ~prefix ~torn_seed:5) arm;
        let tick_boundary = ref (-1) in
        let ticker =
          Sched.spawn (fun () ->
              Sched.delay 1_000;
              try
                Device.write_slice dev ~off:tick_off
                  (Slice.of_bytes (Bytes.make 512 't'));
                tick_boundary := Record.boundaries record - 1
              with Disk.Powered_off -> ())
        in
        (* Let the ticker start, so that nothing is due at the command. *)
        Sched.yield ();
        let t0 = Sched.now () in
        let outcome =
          match
            if read then
              Device.read_into dev ~off (Slice.of_bytes (Bytes.create len))
            else Device.write_slice dev ~off (Slice.of_bytes payload)
          with
          | () -> "ok"
          | exception Disk.Powered_off -> "powered off"
        in
        let took = Sched.now () - t0 in
        Sched.join ticker;
        if Record.fired record then Device.restore_power dev;
        Device.detach_record dev;
        let img = snapshot dev in
        Device.dispose dev;
        (record, !tick_boundary, outcome, took, img))
  in
  let record, prefix, outcome, _, _ = pass () in
  let name = Printf.sprintf "%d member(s), %s" members (if read then "read" else "write") in
  Alcotest.(check string) (name ^ ": uncut") "ok" outcome;
  let _, _, outcome, took, live = pass ~arm:prefix () in
  Alcotest.(check string) (name ^ ": the caller gets Powered_off") "powered off" outcome;
  let dur bytes = Msnap_sim.Costs.(disk_base + disk_xfer bytes) in
  checki (name ^ ": raised once the last member job finished")
    (dur (if members = 1 then Size.kib 32 else Size.kib 64)) took;
  let offline = offline_pass mk record ~prefix ~torn_seed:5 in
  checkb (name ^ ": media = offline image") true (first_diff live offline = None)

(* End-to-end checker smoke on a real engine workload: the serial and
   parallel runs (three domains: two pool workers beside the caller)
   must produce the identical report, and the invariant must hold at
   every point. *)
let test_checker_end_to_end () =
  let opts = { Checker.default_opts with max_points = 60 } in
  let w = Option.get (Msnap_crashwl.Workloads.by_name "objstore") in
  let serial = Checker.run ~opts w in
  let parallel = Checker.run ~opts:{ opts with jobs = 3 } w in
  checkb "no failures" true (serial.Checker.r_failures = []);
  checki "points visited" 60 serial.Checker.r_points;
  checkb "serial = parallel report" true
    (Checker.pp_report serial = Checker.pp_report parallel)

(* Pooled buffers live outside the OCaml heap and nothing reclaims a
   dropped one: every crash workload's recording run and every recovery
   must dispose what it mounted, so a checker run hands back every
   buffer it took. *)
let test_workloads_return_buffers () =
  let outstanding () = (Msnap_util.Pool.totals ()).Msnap_util.Pool.t_outstanding in
  let opts = { Checker.default_opts with max_points = 12 } in
  List.iter
    (fun w ->
      let before = outstanding () in
      let r = Checker.run ~opts w in
      checkb (w.Checker.w_name ^ " passes") true (r.Checker.r_failures = []);
      checki (w.Checker.w_name ^ " outstanding pooled buffers") before
        (outstanding ()))
    Msnap_crashwl.Workloads.all

(* The failure path of the same rule: [w_recover] registers what it
   mounts, so a dump that fails at every point still hands every
   buffer back through [Checker.run]. *)
let test_failing_check_returns_buffers () =
  let outstanding () = (Msnap_util.Pool.totals ()).Msnap_util.Pool.t_outstanding in
  let opts = { Checker.default_opts with max_points = 12 } in
  List.iter
    (fun (w : Checker.workload) ->
      let failing =
        { w with
          Checker.w_recover =
            (fun dev ->
              let _dump = w.Checker.w_recover dev in
              fun () -> Checker.fail "always fails") }
      in
      let before = outstanding () in
      let r = Checker.run ~opts failing in
      checkb (w.Checker.w_name ^ " fails") true (r.Checker.r_failures <> []);
      checki (w.Checker.w_name ^ " outstanding pooled buffers") before
        (outstanding ()))
    Msnap_crashwl.Workloads.all

(* The checker's outcome rules, on a synthetic script over a raw
   device: two flushed setup writes, [History.mark_ready], then three
   acked steps of one flushed write each. The state is the step count.
   The recorded history is kept so the cases can compute the ready
   point and each boundary's floor. *)
let synth_hist = ref (History.create ())

let synth_run dev record =
  let hist = History.create () in
  let write i =
    Device.write_slice dev ~off:(i * 4096)
      (Slice.of_bytes (Bytes.make 4096 (Char.chr (Char.code 'a' + i))));
    Device.flush dev
  in
  write 0;
  write 1;
  History.mark_ready hist record;
  History.step hist record ~label:"setup" ~state:[ ("n", "0") ];
  for s = 1 to 3 do
    write (1 + s);
    History.step hist record ~label:(Printf.sprintf "s%d" s)
      ~state:[ ("n", string_of_int s) ]
  done;
  synth_hist := hist;
  hist

let synth w_recover =
  let w_device () =
    let dev = mk_stripe () in
    Sched.on_exit (fun () -> Device.dispose dev);
    dev
  in
  let r = Checker.run { Checker.w_name = "synth"; w_device; w_run = synth_run; w_recover } in
  let ready = History.ready !synth_hist in
  checkb "points on both sides of ready" true
    (ready > 0 && ready < r.Checker.r_boundaries);
  (r, ready)

let check_failures name r ~expect =
  checki (name ^ ": failure count") (List.length expect)
    (List.length r.Checker.r_failures);
  List.iter2
    (fun (prefix, msg) f ->
      checki (name ^ ": prefix") prefix f.Checker.f_prefix;
      Alcotest.(check string) (name ^ ": message") msg f.Checker.f_msg)
    expect r.Checker.r_failures

(* Every point from [lo] up, boundary-major, seed-minor, with [msg]. *)
let points_from r ~lo msg =
  let nseeds = List.length Checker.default_opts.seeds in
  List.concat_map
    (fun prefix -> List.init nseeds (fun _ -> (prefix, msg prefix)))
    (List.init (r.Checker.r_boundaries - lo) (fun i -> lo + i))

let test_unmountable_after_ready () =
  let r, ready = synth (fun _ -> raise (Checker.Unmountable "no superblock")) in
  check_failures "unmountable" r
    ~expect:(points_from r ~lo:ready (fun _ -> "unmountable: no superblock"));
  let line = Printf.sprintf "FAIL synth prefix=%d torn_seed=1: unmountable:" ready in
  let report = Checker.pp_report r in
  checkb "report names the first failing point" true
    (List.exists
       (fun l -> String.starts_with ~prefix:line l)
       (String.split_on_char '\n' report))

let test_foreign_exception_fails_everywhere () =
  let r, _ = synth (fun _ -> raise Not_found) in
  check_failures "foreign" r
    ~expect:(points_from r ~lo:0 (fun _ -> "recover raised Not_found"))

let test_raising_dump_only_after_ready () =
  let r, ready = synth (fun _ () -> failwith "boom") in
  check_failures "raising dump" r
    ~expect:(points_from r ~lo:ready (fun _ -> "check raised Failure(\"boom\")"))

let test_wrong_dump_names_the_floor () =
  let r, ready = synth (fun _ () -> [ ("n", "wrong") ]) in
  check_failures "wrong dump" r
    ~expect:
      (points_from r ~lo:ready (fun prefix ->
           Printf.sprintf
             "synth: recovered state at boundary %d matches no step >= %d: n=\"wrong\""
             prefix
             (History.lower_bound !synth_hist ~boundary:prefix)))

(* The newest step is a candidate at every boundary: a dump of it
   passes everywhere. *)
let test_newest_step_dump_passes () =
  let r, _ = synth (fun _ () -> [ ("n", "3") ]) in
  check_failures "newest step" r ~expect:[]

let () =
  Alcotest.run "faults"
    [
      ( "image-parity",
        [
          QCheck_alcotest.to_alcotest (prop_image_parity "disk" mk_disk);
          QCheck_alcotest.to_alcotest (prop_image_parity "stripe" mk_stripe);
        ] );
      ( "recording",
        [
          Alcotest.test_case "recording invisible" `Quick
            test_recording_is_invisible;
          Alcotest.test_case "boundaries captured" `Quick
            test_record_boundaries;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "prefix range" `Quick
            test_materialize_prefix_range;
          Alcotest.test_case "full prefix" `Quick
            test_materialize_full_prefix;
        ] );
      ( "inline-cut",
        List.concat_map
          (fun members ->
            List.map
              (fun read ->
                Alcotest.test_case
                  (Printf.sprintf "%d-member stripe %s" members
                     (if read then "read_into" else "writev"))
                  `Quick (inline_cut ~members ~read))
              [ false; true ])
          [ 1; 2 ] );
      ( "checker",
        [
          Alcotest.test_case "end to end" `Quick test_checker_end_to_end;
          Alcotest.test_case "workloads return pooled buffers" `Quick
            test_workloads_return_buffers;
          Alcotest.test_case "a failing check returns pooled buffers" `Quick
            test_failing_check_returns_buffers;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "unmountable fails only after ready" `Quick
            test_unmountable_after_ready;
          Alcotest.test_case "a foreign exception fails every point" `Quick
            test_foreign_exception_fails_everywhere;
          Alcotest.test_case "a raising dump is never called before ready"
            `Quick test_raising_dump_only_after_ready;
          Alcotest.test_case "a wrong dump names boundary and floor" `Quick
            test_wrong_dump_names_the_floor;
          Alcotest.test_case "the newest step's dump passes" `Quick
            test_newest_step_dump_passes;
        ] );
    ]
