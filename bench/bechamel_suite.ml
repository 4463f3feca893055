(* Wall-clock microbenchmarks of the core data structures, via Bechamel.
   These complement the simulated-time experiment tables: they measure the
   real cost of the reproduction's own hot paths (radix COW updates,
   skip-list inserts, B-tree inserts, histogram recording). *)

module Radix = Msnap_objstore.Radix
module Histogram = Msnap_util.Histogram
module Rng = Msnap_util.Rng
open Bechamel
open Toolkit

let test_histogram =
  Test.make ~name:"histogram.add"
    (Staged.stage @@ fun () ->
     let h = Histogram.create () in
     for i = 1 to 1000 do
       Histogram.add h (i * 977)
     done)

let test_rng =
  Test.make ~name:"rng.splitmix64"
    (Staged.stage
    @@ fun () ->
    let rng = Rng.create 1 in
    let acc = ref 0L in
    for _ = 1 to 1000 do
      acc := Int64.add !acc (Rng.bits64 rng)
    done;
    !acc)

let test_radix =
  Test.make ~name:"radix.update_batch (64 pages)"
    (Staged.stage @@ fun () ->
     let nodes = Hashtbl.create 64 in
     let next = ref 1 in
     let alloc n =
       let l = List.init n (fun i -> !next + i) in
       next := !next + n;
       l
     in
     let read_node b = Hashtbl.find nodes b in
     let r =
       Radix.update_batch ~read_node ~alloc ~root:0 ~height:0
         (List.init 64 (fun i -> (i * 97, 10_000 + i)))
     in
     List.iter (fun (b, n) -> Hashtbl.replace nodes b n) r.Radix.node_writes;
     (* The store recycles superseded images after its header flip; doing
        the same here keeps the run on pooled images, as in steady state. *)
     List.iter (fun (_, n) -> Msnap_util.Pool.recycle n) r.Radix.node_writes)

let test_zipf =
  Test.make ~name:"dist.zipf sample"
    (Staged.stage @@ fun () ->
     let d = Msnap_util.Dist.zipf 100_000 in
     let rng = Rng.create 7 in
     let acc = ref 0 in
     for _ = 1 to 1000 do
       acc := !acc + Msnap_util.Dist.sample d rng
     done;
     !acc)

let run () =
  Env.emit "\n=== Bechamel micro-suite (wall clock) ===\n";
  let tests = [ test_histogram; test_rng; test_radix; test_zipf ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Env.printf "  %-32s %12.1f ns/run\n" name est
          | _ -> Env.printf "  %-32s (no estimate)\n" name)
        ols)
    tests;
  Env.emit "\n"
