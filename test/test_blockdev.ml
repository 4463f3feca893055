module Sched = Msnap_sim.Sched
module Costs = Msnap_sim.Costs
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device
module Balloc = Msnap_blockdev.Balloc
module Slice = Msnap_util.Slice

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_bytes = Alcotest.(check string)

let in_sim f () = Sched.run f

let mk_disk ?(size = Size.mib 4) () = Disk.create ~size ()

(* Byte-buffer IO on a bare backend, through the device interface's
   [write_slice] and its one [read]. The write lends [b]: callers pass
   a buffer they leave alone until the write returns. *)
let write d ~off b = Device.write_slice (Device.of_disk d) ~off (Slice.of_bytes b)
let read d ~off ~len = Device.read (Device.of_disk d) ~off ~len
let stripe_write s ~off b = Device.write_slice (Device.of_stripe s) ~off (Slice.of_bytes b)
let stripe_read s ~off ~len = Device.read (Device.of_stripe s) ~off ~len

let test_write_read () =
  in_sim (fun () ->
      let d = mk_disk () in
      let data = Bytes.of_string "hello block device" in
      write d ~off:8192 data;
      let back = read d ~off:8192 ~len:(Bytes.length data) in
      check_bytes "roundtrip" "hello block device" (Bytes.to_string back))
    ()

let test_latency_model () =
  in_sim (fun () ->
      let d = mk_disk () in
      let t0 = Sched.now () in
      write d ~off:0 (Bytes.create 4096);
      let t = Sched.now () - t0 in
      (* 4 KiB: base + xfer = 15500 + 1843 *)
      checki "4k latency" (Costs.disk_base + Costs.disk_xfer 4096) t)
    ()

let test_vectored_single_command () =
  in_sim (fun () ->
      let d = mk_disk () in
      let t0 = Sched.now () in
      Disk.writev d
        [ (0, Disk.Slice.of_bytes (Bytes.create 4096));
          (65536, Disk.Slice.of_bytes (Bytes.create 4096)) ];
      let vectored = Sched.now () - t0 in
      let t1 = Sched.now () in
      write d ~off:0 (Bytes.create 4096);
      write d ~off:65536 (Bytes.create 4096);
      let separate = Sched.now () - t1 in
      checkb "one base latency, not two" true (vectored < separate);
      checki "vectored = base + 2 xfers" (Costs.disk_base + Costs.disk_xfer 8192)
        vectored)
    ()

let test_channels_limit_concurrency () =
  in_sim (fun () ->
      let d = mk_disk () in
      (* 2x disk_channels concurrent 4 KiB writes: second wave queues. *)
      let n = 2 * Costs.disk_channels in
      let t0 = Sched.now () in
      let ts =
        List.init n (fun i ->
            Sched.spawn (fun () ->
                write d ~off:(i * 4096) (Bytes.create 4096)))
      in
      List.iter Sched.join ts;
      let elapsed = Sched.now () - t0 in
      let one = Costs.disk_base + Costs.disk_xfer 4096 in
      checki "two service rounds" (2 * one) elapsed)
    ()

let test_out_of_range () =
  in_sim (fun () ->
      let d = mk_disk ~size:8192 () in
      let raised =
        try
          write d ~off:8000 (Bytes.create 4096);
          false
        with Invalid_argument _ -> true
      in
      checkb "raises" true raised)
    ()

let test_stats () =
  in_sim (fun () ->
      let d = mk_disk () in
      write d ~off:0 (Bytes.create 4096);
      ignore (read d ~off:0 ~len:512);
      let s = Disk.stats d in
      checki "writes" 1 s.Disk.writes;
      checki "reads" 1 s.Disk.reads;
      checki "bytes written" 4096 s.Disk.bytes_written;
      checki "bytes read" 512 s.Disk.bytes_read;
      Disk.reset_stats d;
      checki "reset" 0 (Disk.stats d).Disk.writes)
    ()

let test_power_failure_blocks_io () =
  in_sim (fun () ->
      let d = mk_disk () in
      Disk.fail_power d ~torn_seed:1;
      let raised = try write d ~off:0 (Bytes.create 512); false with Disk.Powered_off -> true in
      checkb "write rejected" true raised;
      Disk.restore_power d;
      write d ~off:0 (Bytes.create 512))
    ()

let test_torn_write () =
  in_sim (fun () ->
      let d = mk_disk () in
      (* Fill with 'O', then crash mid-flight of an 8-sector overwrite. *)
      write d ~off:0 (Bytes.make 4096 'O');
      let writer =
        Sched.spawn (fun () ->
            try write d ~off:0 (Bytes.make 4096 'N')
            with Disk.Powered_off -> ())
      in
      (* Let the write get half way. *)
      Sched.delay ((Costs.disk_base + Costs.disk_xfer 4096) / 2);
      Disk.fail_power d ~torn_seed:7;
      Sched.join writer;
      Disk.restore_power d;
      let back = Bytes.to_string (read d ~off:0 ~len:4096) in
      (* Every sector is entirely old or entirely new. *)
      let sectors = 4096 / Costs.sector in
      let mixed = ref false and any_new = ref false and any_old = ref false in
      for s = 0 to sectors - 1 do
        let seg = String.sub back (s * Costs.sector) Costs.sector in
        let all c = String.for_all (fun x -> x = c) seg in
        if all 'N' then any_new := true
        else if all 'O' then any_old := true
        else mixed := true
      done;
      checkb "sector atomicity" false !mixed;
      checkb "prefix semantics: new sectors before old" true
        (let seen_old = ref false in
         let ok = ref true in
         for s = 0 to sectors - 1 do
           let seg = String.sub back (s * Costs.sector) Costs.sector in
           if String.for_all (fun x -> x = 'O') seg then seen_old := true
           else if !seen_old then ok := false
         done;
         !ok);
      ignore (!any_new, !any_old))
    ()

(* A read in flight when power fails must fail, like a write in the
   same position, even if power is back before its transfer would have
   ended: the data never reached the host. *)
let test_power_failure_during_read () =
  in_sim (fun () ->
      let d = mk_disk () in
      write d ~off:0 (Bytes.make 4096 'r');
      let dur = Costs.disk_base + Costs.disk_xfer 4096 in
      let read_across_outage ~restore_before_end =
        let outcome = ref "" in
        let reader =
          Sched.spawn (fun () ->
              outcome :=
                match read d ~off:0 ~len:4096 with
                | _ -> "data"
                | exception Disk.Powered_off -> "powered off")
        in
        Sched.delay (dur / 2);
        Disk.fail_power d ~torn_seed:1;
        if restore_before_end then Disk.restore_power d;
        Sched.join reader;
        Disk.restore_power d;
        !outcome
      in
      check_bytes "outage, power still off at the end" "powered off"
        (read_across_outage ~restore_before_end:false);
      check_bytes "outage, power back before the end" "powered off"
        (read_across_outage ~restore_before_end:true);
      check_bytes "a read after the outage succeeds" (String.make 4096 'r')
        (Bytes.to_string (read d ~off:0 ~len:4096)))
    ()

(* --- the medium: sparse off-heap chunks, zeroed lazily per page --- *)

let chunk = Size.kib 256

(* A chunk recycled through [dispose] keeps no stale bytes: under
   [debug_checks] a disposed chunk is poisoned, so any page the new
   medium never wrote but reads back as non-zero is a validity bug. *)
let test_chunk_reuse () =
  in_sim (fun () ->
      let d = mk_disk ~size:chunk () in
      write d ~off:0 (Bytes.make chunk 'x');
      Disk.dispose d;
      let d = mk_disk ~size:chunk () in
      write d ~off:0 (Bytes.make 512 'y');
      let want = Bytes.make chunk '\000' in
      Bytes.fill want 0 512 'y';
      checkb "512 written bytes, then zeros" true
        (Bytes.equal want (read d ~off:0 ~len:chunk));
      (* A sub-sector write into the middle of a fresh page. *)
      Disk.poke d ~off:(chunk - 5000) ~data:(Bytes.make 3 'z');
      Bytes.fill want (chunk - 5000) 3 'z';
      checkb "sub-page first write zeroes the rest of its page" true
        (Bytes.equal want (Disk.peek d ~off:0 ~len:chunk)))
    ()

(* Chunks tile 2 MiB slabs, eight to a slab. A disposed medium parks
   every chunk (none are dropped), so a second medium twice as large
   takes all of the first one's, poisoned under debug checks, and
   carves the rest from fresh slabs: each chunk reads back exactly what
   was written to it, and every unwritten page reads zeros. *)
let test_chunks_across_slabs () =
  in_sim (fun () ->
      let n = 20 in
      let d = mk_disk ~size:(n * chunk) () in
      for i = 0 to n - 1 do
        write d ~off:(i * chunk) (Bytes.make chunk (Char.chr (65 + i)))
      done;
      Disk.dispose d;
      let d = mk_disk ~size:(2 * n * chunk) () in
      for i = 0 to (2 * n) - 1 do
        write d ~off:((i * chunk) + 4096) (Bytes.make 4096 (Char.chr (97 + (i mod 26))))
      done;
      for i = 0 to (2 * n) - 1 do
        let want = Bytes.make chunk '\000' in
        Bytes.fill want 4096 4096 (Char.chr (97 + (i mod 26)));
        checkb (Printf.sprintf "chunk %d" i) true
          (Bytes.equal want (read d ~off:(i * chunk) ~len:chunk))
      done;
      Disk.dispose d)
    ()

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* Every medium access is checked before any byte moves: out-of-range
   arguments raise [Invalid_argument] and leave the medium untouched,
   including ranges that end past the device but inside its last chunk. *)
let test_medium_bounds () =
  in_sim (fun () ->
      let size = 8192 in
      let d = mk_disk ~size () in
      let bad =
        [ ("peek past the end", fun () -> ignore (Disk.peek d ~off:(size - 4) ~len:8));
          ("peek negative off", fun () -> ignore (Disk.peek d ~off:(-1) ~len:8));
          ("peek negative len", fun () -> ignore (Disk.peek d ~off:0 ~len:(-1)));
          ("poke past the end",
            fun () -> Disk.poke d ~off:(size - 100) ~data:(Bytes.make 4096 'p'));
          ("poke negative off", fun () -> Disk.poke d ~off:(-8) ~data:(Bytes.make 16 'p'));
          ("poke at max_int",
            fun () -> Disk.poke d ~off:max_int ~data:(Bytes.make 16 'p'));
          ("read past the end", fun () -> ignore (read d ~off:size ~len:1));
          ("writev past the end",
            fun () ->
              Disk.writev d
                [ (0, Slice.of_bytes (Bytes.make 512 'w'));
                  (size, Slice.of_bytes (Bytes.make 512 'w')) ]) ]
      in
      List.iter (fun (name, f) -> checkb name true (raises_invalid f)) bad;
      checkb "medium untouched" true
        (Bytes.equal (Bytes.make size '\000') (Disk.peek d ~off:0 ~len:size)))
    ()

(* Differential: [Disk] against a flat zero-initialized [Bytes] model,
   over random vectored writes (sector-adjacent runs that cross chunk
   and page boundaries take the fused path), sub-page and 512-byte first
   writes, reads, peek/poke and torn power failures. The disk under test
   draws recycled, poisoned chunks, so a stale page reads back as 0xA5.
   Copies into a chunk stream whole cache lines and copy the partial
   lines at either end: lengths cluster at whole pages give or take a
   few bytes or a partial line, and some sources are views 1-63 bytes
   into a padded buffer, so the head, the streamed body and the tail
   each meet unaligned sources and destinations. *)
type medium_op =
  | Writev of (int * int) list (* (off, len) per segment *)
  | Read of int * int
  | Poke of int * int
  | Torn of (int * int) list * int * int (* segments, delay per mille, seed *)

let medium_size = 4 * chunk

let show_op = function
  | Writev segs ->
    "writev "
    ^ String.concat "," (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) segs)
  | Read (o, l) -> Printf.sprintf "read %d+%d" o l
  | Poke (o, l) -> Printf.sprintf "poke %d+%d" o l
  | Torn (segs, pm, seed) ->
    Printf.sprintf "torn(%d/1000, seed %d) %s" pm seed
      (String.concat "," (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) segs))

let gen_medium_ops =
  let open QCheck.Gen in
  (* Offsets cluster around chunk and page boundaries. *)
  let off =
    frequency
      [ (2, int_range 0 (medium_size - 1));
        (3, map2 (fun c d -> max 0 ((c * chunk) + d)) (int_range 0 3)
              (int_range (-3000) 3000));
        (2, map2 (fun p d -> max 0 ((p * 4096) + d)) (int_range 0 255)
              (int_range (-600) 600)) ]
  in
  let len =
    frequency
      [ (3, int_range 1 600); (2, return 512); (2, return 4096);
        (2, int_range 1 20_000); (1, int_range 1 (chunk + 9000));
        (3, map2 (fun k d -> max 1 ((k * 4096) + d)) (int_range 1 70)
              (oneofl [ 0; 1; -1; 15; -15; 48; -48; 63; -63 ])) ]
  in
  let clip (o, l) = (o, min l (medium_size - o)) in
  (* A run of exactly adjacent segments, then maybe an unrelated one. *)
  let segs =
    let* o = off and* lens = list_size (int_range 1 4) len in
    let run, _ =
      List.fold_left
        (fun (acc, o) l ->
          if o >= medium_size then (acc, o)
          else
            let o, l = clip (o, l) in
            ((o, l) :: acc, o + l))
        ([], o) lens
    in
    let* extra = opt (pair off len) in
    let extra = match extra with Some (o, l) -> [ clip (o, l) ] | None -> [] in
    return (List.rev run @ extra)
  in
  let op =
    frequency
      [ (5, map (fun s -> Writev s) segs);
        (3, map (fun ol -> let o, l = clip ol in Read (o, l)) (pair off len));
        (2, map (fun ol -> let o, l = clip ol in Poke (o, l)) (pair off len));
        (1, map3 (fun s pm seed -> Torn (s, pm, seed)) segs (int_range 1 999)
              (int_range 0 1_000_000)) ]
  in
  list_size (int_range 1 25) op

let prop_medium_differential =
  QCheck.Test.make ~count:150 ~name:"disk = flat zeroed model"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       gen_medium_ops)
    (fun ops ->
      Sched.run (fun () ->
          (* Leave poisoned chunks on this domain's free stack. *)
          let junk = Disk.create ~size:medium_size () in
          Disk.poke junk ~off:0 ~data:(Bytes.make medium_size 'j');
          Disk.dispose junk;
          let d = Disk.create ~size:medium_size () in
          let model = Bytes.make medium_size '\000' in
          let rng = Msnap_util.Rng.create (List.length ops) in
          let slices segs =
            List.map
              (fun (o, l) ->
                let data = Msnap_util.Rng.bytes rng l in
                match Msnap_util.Rng.int rng 128 with
                | pad when pad >= 1 && pad <= 63 ->
                  (* A view [pad] bytes into a buffer padded on both sides. *)
                  let buf = Bytes.make (pad + l + 64) '#' in
                  Bytes.blit data 0 buf pad l;
                  (o, Slice.make buf ~pos:pad ~len:l)
                | _ -> (o, Slice.of_bytes data))
              segs
          in
          let apply ?(upto = max_int) segs =
            (* Segments commit in order; [upto] bounds the sectors. *)
            ignore
              (List.fold_left
                 (fun left (o, s) ->
                   let len = Slice.length s in
                   let sectors = (len + Costs.sector - 1) / Costs.sector in
                   let take = min sectors left in
                   Bytes.blit (Slice.buf s) (Slice.pos s) model o
                     (min len (take * Costs.sector));
                   left - take)
                 upto segs)
          in
          let same o l = Bytes.equal (Disk.peek d ~off:o ~len:l) (Bytes.sub model o l) in
          List.for_all
            (fun op ->
              match op with
              | Writev segs ->
                let segs = slices segs in
                Disk.writev d segs;
                apply segs;
                true
              | Read (o, l) ->
                let dst = Bytes.make (l + 3) '?' in
                Disk.read_into d ~off:o (Slice.make dst ~pos:3 ~len:l);
                Bytes.sub dst 0 3 = Bytes.of_string "???"
                && Bytes.equal (Bytes.sub dst 3 l) (Bytes.sub model o l)
              | Poke (o, l) ->
                let data = Msnap_util.Rng.bytes rng l in
                Disk.poke d ~off:o ~data;
                Bytes.blit data 0 model o l;
                same o l
              | Torn (segs, pm, seed) ->
                let segs = slices segs in
                let total = List.fold_left (fun a (_, s) -> a + Slice.length s) 0 segs in
                let dur = Costs.disk_base + Costs.disk_xfer total in
                let elapsed = max 1 (dur * pm / 1000) in
                let w =
                  Sched.spawn (fun () ->
                      try Disk.writev d segs with Disk.Powered_off -> ())
                in
                Sched.delay elapsed;
                Disk.fail_power d ~torn_seed:seed;
                Sched.join w;
                Disk.restore_power d;
                (* The budget [fail_power] draws for its only command. *)
                let total_sectors =
                  List.fold_left
                    (fun a (_, s) ->
                      a + ((Slice.length s + Costs.sector - 1) / Costs.sector))
                    0 segs
                in
                let rng = Msnap_util.Rng.create (seed lxor 0x5EED) in
                apply ~upto:(Disk.torn_sector_budget ~rng ~elapsed ~dur ~total_sectors)
                  segs;
                true)
            ops
          && same 0 medium_size))

(* --- Stripe --- *)

let mk_stripe ?(unit_size = Size.kib 64) ?(n = 2) ?(disk_size = Size.mib 4) () =
  Stripe.create ~unit_size
    (List.init n (fun i -> Disk.create ~name:(Printf.sprintf "d%d" i) ~size:disk_size ()))

let test_stripe_roundtrip () =
  in_sim (fun () ->
      let s = mk_stripe () in
      let rng = Msnap_util.Rng.create 5 in
      (* Spans several stripe units and a device boundary. *)
      let data = Msnap_util.Rng.bytes rng (Size.kib 200) in
      stripe_write s ~off:(Size.kib 30) data;
      let back = stripe_read s ~off:(Size.kib 30) ~len:(Size.kib 200) in
      checkb "roundtrip" true (Bytes.equal data back))
    ()

let test_stripe_size () =
  in_sim (fun () ->
      let s = mk_stripe () in
      checki "size" (Size.mib 8) (Device.size (Device.of_stripe s)))
    ()

let test_stripe_parallelism () =
  in_sim (fun () ->
      let s = mk_stripe () in
      (* A 128 KiB aligned write spans both devices: latency ~ one 64 KiB
         command, not one 128 KiB command. *)
      let t0 = Sched.now () in
      stripe_write s ~off:0 (Bytes.create (Size.kib 128));
      let t = Sched.now () - t0 in
      let one_dev = Costs.disk_base + Costs.disk_xfer (Size.kib 64) in
      checkb "parallel across devices" true (t <= one_dev + 2_000))
    ()

let test_stripe_single_unit_one_device () =
  in_sim (fun () ->
      let s = mk_stripe () in
      stripe_write s ~off:0 (Bytes.create (Size.kib 64));
      let st = Device.stats (Device.of_stripe s) in
      checki "one command" 1 st.Disk.writes)
    ()

let test_stripe_crash () =
  in_sim (fun () ->
      let s = mk_stripe () in
      let dev = Device.of_stripe s in
      stripe_write s ~off:0 (Bytes.make 512 'A');
      Device.fail_power dev ~torn_seed:3;
      let raised = try stripe_write s ~off:0 (Bytes.create 512); false with Disk.Powered_off -> true in
      checkb "off" true raised;
      Device.restore_power dev;
      check_bytes "data survives" (String.make 512 'A')
        (Bytes.to_string (stripe_read s ~off:0 ~len:512)))
    ()

(* --- zero-copy crash equivalence --- *)

(* Replay one crashing vectored write and return the whole recovered
   medium. [copy_at_issue] selects the reference data plane (the
   pre-slice implementation: snapshot every segment into a private
   buffer when the command is issued); [false] is the zero-copy path
   under test, whose slices alias [backing] directly. Crash timing and
   the torn-prefix choice depend only on geometry, elapsed time and the
   seed — identical across both variants — so equal recovered media
   proves the commit/tear-time copy from live slices is equivalent to an
   issue-time snapshot. *)
let crash_replay ~copy_at_issue ~disk_size ~init ~segs ~backing ~delay ~seed =
  Sched.run (fun () ->
      let d = Disk.create ~size:disk_size () in
      List.iter (fun (off, data) -> write d ~off data) init;
      let slices =
        List.map
          (fun (off, pos, len) ->
            let s =
              if copy_at_issue then Slice.of_bytes (Bytes.sub backing pos len)
              else Slice.make backing ~pos ~len
            in
            (off, s))
          segs
      in
      let writer =
        Sched.spawn (fun () ->
            try Disk.writev d slices with Disk.Powered_off -> ())
      in
      Sched.delay delay;
      Disk.fail_power d ~torn_seed:seed;
      Sched.join writer;
      Disk.restore_power d;
      read d ~off:0 ~len:disk_size)

let test_torn_prefix_sweep () =
  (* One 8-sector command over a sweep of crash points and seeds: every
     sector-prefix length 0..8 must be realized by some crash, and every
     recovered medium must equal the copy-at-issue reference. *)
  let nsec = 8 in
  let len = nsec * Costs.sector in
  let disk_size = Size.kib 64 in
  let init = [ (0, Bytes.make len 'O') ] in
  (* Sector k of the payload is filled with byte k+1, so the committed
     prefix length can be read back from the medium. *)
  let backing =
    Bytes.init len (fun i -> Char.chr (1 + (i / Costs.sector)))
  in
  let segs = [ (0, 0, len) ] in
  let dur = Costs.disk_base + Costs.disk_xfer len in
  let seen = Array.make (nsec + 1) false in
  for step = 0 to 16 do
    let delay = dur * step / 16 in
    for seed = 0 to 15 do
      let zc =
        crash_replay ~copy_at_issue:false ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      let ref_ =
        crash_replay ~copy_at_issue:true ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      checkb "zero-copy recovery = copy-at-issue recovery" true
        (Bytes.equal zc ref_);
      (* Count the committed prefix and check it is a strict prefix:
         new sectors, then old, never interleaved. *)
      let prefix = ref 0 and in_prefix = ref true in
      for s = 0 to nsec - 1 do
        let c = Bytes.get zc (s * Costs.sector) in
        if !in_prefix && c = Char.chr (1 + s) then incr prefix
        else begin
          in_prefix := false;
          checkb "suffix is old data" true (c = 'O')
        end
      done;
      seen.(!prefix) <- true
    done
  done;
  Array.iteri
    (fun i hit ->
      checkb (Printf.sprintf "prefix of %d sectors realized" i) true hit)
    seen

(* Property: for arbitrary scatter lists whose segments alias (and
   overlap within) one shared backing buffer, a crash at an arbitrary
   point recovers the same medium as the pre-slice copy-at-issue
   implementation. *)
let prop_zero_copy_crash_equivalence =
  let open QCheck in
  let gen =
    Gen.(
      let* nsegs = int_range 1 4 in
      let backing_len = 16 * Costs.sector in
      let* segs =
        list_repeat nsegs
          (let* len = int_range 1 (4 * Costs.sector) in
           let* pos = int_range 0 (backing_len - len) in
           let* off_sec = int_range 0 48 in
           return (off_sec * Costs.sector, pos, len))
      in
      let* delay_pct = int_range 0 100 in
      let* seed = int_range 0 1_000_000 in
      return (segs, delay_pct, seed))
  in
  QCheck.Test.make ~count:100
    ~name:"crashing writev over aliased slices = copy-at-issue recovery"
    (make gen)
    (fun (segs, delay_pct, seed) ->
      let disk_size = Size.kib 64 in
      let backing_len = 16 * Costs.sector in
      let rng = Msnap_util.Rng.create (seed lxor 0xA11A5) in
      let backing = Msnap_util.Rng.bytes rng backing_len in
      let init = [ (0, Msnap_util.Rng.bytes rng disk_size) ] in
      let total = List.fold_left (fun a (_, _, l) -> a + l) 0 segs in
      let dur = Costs.disk_base + Costs.disk_xfer total in
      let delay = dur * delay_pct / 100 in
      let zc =
        crash_replay ~copy_at_issue:false ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      let ref_ =
        crash_replay ~copy_at_issue:true ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      Bytes.equal zc ref_)

(* Property: splitting one contiguous write into adjacent segments (the
   shape the object store's sorted batches produce) must be equivalent to
   the single merged write — same recovered image AND same virtual-time
   cost — no matter where the cuts fall or where the run lands relative
   to stripe-unit and device boundaries. This pins down the write
   coalescing in Stripe/Disk: merging is a host-side optimization. *)
let prop_coalesce_equivalence =
  let open QCheck in
  let gen =
    Gen.(
      let* total_sec = int_range 1 64 in
      let* ncuts = int_range 0 6 in
      let* cuts = list_repeat ncuts (int_range 1 (max 1 ((total_sec * Costs.sector) - 1))) in
      let* off_sec = int_range 0 192 in
      let* seed = int_range 0 1_000_000 in
      return (total_sec, cuts, off_sec, seed))
  in
  QCheck.Test.make ~count:100
    ~name:"adjacent split writev = merged write (image and cost)"
    (make gen)
    (fun (total_sec, cuts, off_sec, seed) ->
      let len = total_sec * Costs.sector in
      let off = off_sec * Costs.sector in
      let backing = Msnap_util.Rng.bytes (Msnap_util.Rng.create seed) len in
      let bounds =
        List.sort_uniq compare ((0 :: List.filter (fun c -> c < len) cuts) @ [ len ])
      in
      let rec to_segs = function
        | a :: (b :: _ as tl) ->
          (off + a, Slice.make backing ~pos:a ~len:(b - a)) :: to_segs tl
        | _ -> []
      in
      let run segs =
        Sched.run (fun () ->
            let s = mk_stripe ~disk_size:(Size.kib 256) () in
            let t0 = Sched.now () in
            Stripe.writev s segs;
            let dur = Sched.now () - t0 in
            (dur, stripe_read s ~off ~len))
      in
      let split = run (to_segs bounds) in
      let merged = run [ (off, Slice.make backing ~pos:0 ~len) ] in
      fst split = fst merged && Bytes.equal (snd split) (snd merged))

(* --- Device: one interface over both backends --- *)

(* The packed Device must forward every operation unchanged: same data,
   same virtual-time cost, same stats as calling the backend directly. *)
let test_device_disk_parity () =
  let direct =
    Sched.run (fun () ->
        let d = mk_disk () in
        Disk.write_slice d ~off:4096 (Slice.of_bytes (Bytes.make 512 'q'));
        let b = Bytes.create 512 in
        Disk.read_into d ~off:4096 (Slice.of_bytes b);
        Disk.flush d;
        (Bytes.to_string b, Sched.now (), (Disk.stats d).Disk.writes))
  in
  let wrapped =
    Sched.run (fun () ->
        let dev = Device.of_disk (mk_disk ()) in
        Device.write_slice dev ~off:4096 (Slice.of_bytes (Bytes.make 512 'q'));
        let b = Device.read dev ~off:4096 ~len:512 in
        Device.flush dev;
        (Bytes.to_string b, Sched.now (), (Device.stats dev).Disk.writes))
  in
  Alcotest.(check (triple string int int)) "disk parity" direct wrapped

let test_device_stripe_parity () =
  let mk () =
    Stripe.create
      [ Disk.create ~size:(Size.mib 4) (); Disk.create ~size:(Size.mib 4) () ]
  in
  let direct =
    Sched.run (fun () ->
        let s = mk () in
        Stripe.write_slice s ~off:0 (Slice.of_bytes (Bytes.make (Size.kib 256) 'w'));
        let b = Bytes.create 128 in
        Stripe.read_into s ~off:(Size.kib 64) (Slice.of_bytes b);
        Stripe.flush s;
        (Bytes.to_string b, Sched.now (),
         Array.fold_left (fun a d -> a + Disk.size d) 0 (Stripe.disks s)))
  in
  let wrapped =
    Sched.run (fun () ->
        let dev = Device.of_stripe (mk ()) in
        Device.write_slice dev ~off:0 (Slice.of_bytes (Bytes.make (Size.kib 256) 'w'));
        let b = Device.read dev ~off:(Size.kib 64) ~len:128 in
        Device.flush dev;
        (Bytes.to_string b, Sched.now (), Device.size dev))
  in
  Alcotest.(check (triple string int int)) "stripe parity" direct wrapped

let test_device_power_failure () =
  Sched.run (fun () ->
      let dev = Device.of_disk (mk_disk ()) in
      Device.write_slice dev ~off:0 (Slice.of_bytes (Bytes.make 512 'x'));
      Device.fail_power dev ~torn_seed:1;
      checkb "write raises when off" true
        (match Device.write_slice dev ~off:0 (Slice.of_bytes (Bytes.make 512 'y')) with
        | () -> false
        | exception Disk.Powered_off -> true);
      Device.restore_power dev;
      check_bytes "survives the cycle" (String.make 512 'x')
        (Bytes.to_string (Device.read dev ~off:0 ~len:512)))

let test_device_barrier_orders () =
  (* Both current backends implement barrier as a queue drain: after it
     returns, everything previously issued is durable. *)
  Sched.run (fun () ->
      let dev = Device.of_stripe
          (Stripe.create [ Disk.create ~size:(Size.mib 4) () ])
      in
      Device.write_slice dev ~off:0 (Slice.of_bytes (Bytes.make 4096 'b'));
      Device.barrier dev;
      Device.fail_power dev ~torn_seed:3;
      Device.restore_power dev;
      check_bytes "barriered write durable" (String.make 8 'b')
        (Bytes.to_string (Device.read dev ~off:0 ~len:8)))

(* The member-level operations over 1, 2 and 3 disks: size and stats
   are the sums over the members, a power cut tears member [i] with
   [torn_seed + i], and [reset_stats] zeroes every member. Twin disks
   see the same commands at the same virtual times and are torn one by
   one; their media must equal the device's members byte for byte. *)
let test_device_member_ops () =
  let zero =
    { Disk.reads = 0; writes = 0; bytes_read = 0; bytes_written = 0; busy_ns = 0 }
  in
  let sum_stats disks =
    List.fold_left
      (fun (a : Disk.stats) d ->
        let s = Disk.stats d in
        { Disk.reads = a.reads + s.reads;
          writes = a.writes + s.writes;
          bytes_read = a.bytes_read + s.bytes_read;
          bytes_written = a.bytes_written + s.bytes_written;
          busy_ns = a.busy_ns + s.busy_ns })
      zero disks
  in
  let check_stats name (a : Disk.stats) (b : Disk.stats) =
    Alcotest.(check (list int)) name
      [ a.reads; a.writes; a.bytes_read; a.bytes_written; a.busy_ns ]
      [ b.reads; b.writes; b.bytes_read; b.bytes_written; b.busy_ns ]
  in
  let case n =
    Sched.run (fun () ->
        let mk tag =
          List.init n (fun i ->
              Disk.create ~name:(Printf.sprintf "%s%d" tag i) ~size:(Size.kib 512) ())
        in
        let pack = function
          | [ d ] -> Device.of_disk d
          | ds -> Device.of_stripe (Stripe.create ds)
        in
        let disks = mk "m" and twins = mk "t" in
        let dev = pack disks and twin = pack twins in
        let name = Printf.sprintf "%d disks" n in
        let rng = Msnap_util.Rng.create n in
        let payload = Msnap_util.Rng.bytes rng (Size.kib 320) in
        let both f = f dev; f twin in
        both (fun d ->
            Device.write_slice d ~off:0 (Slice.of_bytes (Bytes.make (Size.kib 200) 'o'));
            Device.writev d
              [ (Size.kib 4, Slice.make payload ~pos:0 ~len:(Size.kib 8));
                (Size.kib 70, Slice.make payload ~pos:(Size.kib 8) ~len:(Size.kib 60)) ];
            ignore (Device.read d ~off:(Size.kib 30) ~len:(Size.kib 100));
            Device.flush d);
        checki (name ^ ": size") (n * Size.kib 512) (Device.size dev);
        check_stats (name ^ ": stats") (sum_stats disks) (Device.stats dev);
        (* Cut power half way through a write that spans every member. *)
        let seed = 11 in
        let writer d =
          Sched.spawn (fun () ->
              try Device.write_slice d ~off:(Size.kib 8) (Slice.of_bytes payload)
              with Disk.Powered_off -> ())
        in
        let w = writer dev and tw = writer twin in
        Sched.delay ((Costs.disk_base + Costs.disk_xfer (Size.kib 320 / n)) / 2);
        Device.fail_power dev ~torn_seed:seed;
        List.iteri (fun i t -> Disk.fail_power t ~torn_seed:(seed + i)) twins;
        Sched.join w;
        Sched.join tw;
        Device.restore_power dev;
        List.iter Disk.restore_power twins;
        List.iteri
          (fun i (d, t) ->
            checkb
              (Printf.sprintf "%s: member %d torn with seed + %d" name i i)
              true
              (Bytes.equal
                 (Disk.peek d ~off:0 ~len:(Disk.size d))
                 (Disk.peek t ~off:0 ~len:(Disk.size t))))
          (List.combine disks twins);
        Device.reset_stats dev;
        List.iteri
          (fun i d -> check_stats (Printf.sprintf "%s: member %d reset" name i) zero (Disk.stats d))
          disks;
        Device.dispose dev;
        Device.dispose twin)
  in
  List.iter case [ 1; 2; 3 ]

let mentions msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

(* Every backend has one write contract: the buffer is lent, not
   copied. Under [debug_checks], mutating it while the write is in
   flight is an ownership violation raised to the writer; once the
   write has returned, the buffer is the caller's to reuse. *)
let test_device_lent_buffer () =
  let check name dev =
    Sched.run (fun () ->
        let dev = dev () in
        let b = Bytes.of_string "AAAA" in
        let violation = ref false in
        let writer =
          Sched.spawn (fun () ->
              try Device.write_slice dev ~off:0 (Slice.of_bytes b)
              with Invalid_argument msg ->
                violation := mentions msg "ownership violation")
        in
        (* Let the writer submit, then mutate while the IO is in flight. *)
        Sched.delay 1;
        Bytes.set b 0 'Z';
        Sched.join writer;
        checkb (name ^ ": mutation in flight raises") true !violation;
        Bytes.set b 0 'B';
        Device.write_slice dev ~off:0 (Slice.of_bytes b);
        Bytes.set b 0 'C';
        check_bytes (name ^ ": reuse after the write returns") "BAAA"
          (Bytes.to_string (Device.read dev ~off:0 ~len:4)))
  in
  check "disk" (fun () -> Device.of_disk (mk_disk ()));
  check "stripe" (fun () -> Device.of_stripe (mk_stripe ()))

(* The same contract on the member slices a stripe builds itself: one
   command whose first two segments are adjacent on the device and in
   the buffer, so [Stripe.coalesce] hands member 0 one merged slice,
   and whose third crosses the 64 KiB stripe unit, so each member gets
   a part of it. A byte mutated under any of them while the command is
   in flight fails that member's commit-time checksum. *)
let test_device_lent_buffer_stripe_segments () =
  let unit = Size.kib 64 in
  let segs b =
    [ (0, Slice.make b ~pos:0 ~len:4096);
      (4096, Slice.make b ~pos:4096 ~len:4096);
      (unit - 4096, Slice.make b ~pos:8192 ~len:8192) ]
  in
  let mutated dev name at =
    let b = Bytes.make 16384 'A' in
    let violation = ref false in
    let writer =
      Sched.spawn (fun () ->
          try Device.writev dev (segs b)
          with Invalid_argument msg ->
            violation := mentions msg "ownership violation")
    in
    Sched.delay 1;
    Bytes.set b at 'Z';
    Sched.join writer;
    checkb (name ^ ": mutation in flight raises") true !violation
  in
  Testkit.in_dev ~mib:1
    (fun dev ->
      let b = Bytes.init 16384 (fun i -> Char.chr (65 + (i / 4096))) in
      Device.writev dev (segs b);
      let member i = Disk.stats (Device.disks dev).(i) in
      checki "member 0: merged run and first part" 12288
        (member 0).bytes_written;
      checki "member 1: second part" 4096 (member 1).bytes_written;
      check_bytes "unmutated command lands"
        (Bytes.sub_string b 8192 8192)
        (Bytes.to_string (Device.read dev ~off:(unit - 4096) ~len:8192));
      mutated dev "coalesced run, first segment" 100;
      mutated dev "coalesced run, second segment" 5000;
      mutated dev "split segment, member 0 part" 9000;
      mutated dev "split segment, member 1 part" 13000)
    ()

(* --- Balloc --- *)

(* Two reserved blocks, as the object store's two superblock slots. *)
let mk_alloc total_blocks = Balloc.create ~total_blocks ~reserved:2

let test_alloc_contiguous () =
  let a = mk_alloc 100 in
  let run = Balloc.alloc_run a 5 in
  checki "len" 5 (List.length run);
  let sorted = List.sort compare run in
  Alcotest.(check (list int)) "ascending contiguous" sorted run;
  (match run with
  | first :: _ ->
    checkb "contiguous" true
      (List.for_all2 (fun b i -> b = first + i) run (List.init 5 Fun.id))
  | [] -> Alcotest.fail "empty");
  List.iter (fun b -> checkb "allocated" true (Balloc.is_allocated a b)) run

let test_alloc_exhaustion () =
  let a = mk_alloc 10 in
  let avail = Balloc.free_blocks a in
  ignore (Balloc.alloc_run a avail);
  checkb "out of space" true
    (try ignore (Balloc.alloc_run a 1); false with Balloc.Out_of_space -> true)

let test_alloc_fragmented_fallback () =
  let a = mk_alloc 32 in
  let run = Balloc.alloc_run a 20 in
  (* Free every other block, then ask for a run bigger than any hole. *)
  let evens = List.filteri (fun i _ -> i mod 2 = 0) run in
  Balloc.free_now a evens;
  let got = Balloc.alloc_run a 8 in
  checki "still serves scattered" 8 (List.length got)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "blockdev"
    [
      ( "disk",
        [
          tc "write/read" test_write_read;
          tc "latency model" test_latency_model;
          tc "vectored IO" test_vectored_single_command;
          tc "channel limit" test_channels_limit_concurrency;
          tc "out of range" test_out_of_range;
          tc "stats" test_stats;
          tc "power failure" test_power_failure_blocks_io;
          tc "torn write" test_torn_write;
          tc "power failure during a read" test_power_failure_during_read;
          tc "torn prefix sweep (zero-copy = snapshot)" test_torn_prefix_sweep;
          QCheck_alcotest.to_alcotest prop_zero_copy_crash_equivalence;
        ] );
      ( "medium",
        [
          tc "chunk reuse reads zeros" test_chunk_reuse;
          tc "chunks across slabs" test_chunks_across_slabs;
          tc "out-of-range arguments" test_medium_bounds;
          QCheck_alcotest.to_alcotest prop_medium_differential;
        ] );
      ( "stripe",
        [
          tc "roundtrip" test_stripe_roundtrip;
          tc "size" test_stripe_size;
          tc "parallelism" test_stripe_parallelism;
          tc "single unit" test_stripe_single_unit_one_device;
          tc "crash" test_stripe_crash;
          QCheck_alcotest.to_alcotest prop_coalesce_equivalence;
        ] );
      ( "device",
        [
          tc "disk parity" test_device_disk_parity;
          tc "stripe parity" test_device_stripe_parity;
          tc "power failure through wrapper" test_device_power_failure;
          tc "barrier makes prior IO durable" test_device_barrier_orders;
          tc "lent buffer: one contract" test_device_lent_buffer;
          tc "lent buffer: stripe member segments"
            test_device_lent_buffer_stripe_segments;
          tc "member ops: size, stats, tear, reset" test_device_member_ops;
        ] );
      ( "alloc",
        [
          tc "contiguous runs" test_alloc_contiguous;
          tc "exhaustion" test_alloc_exhaustion;
          tc "fragmented fallback" test_alloc_fragmented_fallback;
        ] );
    ]
