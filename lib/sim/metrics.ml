module Histogram = Msnap_util.Histogram

(* A view over the running engine's metric columns
   ([Sched.probe_counts] / [Sched.probe_hists], indexed by
   [Probe.id]). *)

let incr ?(by = 1) p =
  let c = Sched.probe_counts () and i = Probe.id p in
  c.(i) <- c.(i) + by

let count p = (Sched.probe_counts ()).(Probe.id p)
let hist p = (Sched.probe_hists ()).(Probe.id p)

let add_sample p ns =
  incr p;
  let hs = Sched.probe_hists () and i = Probe.id p in
  match hs.(i) with
  | Some h -> Histogram.add h ns
  | None ->
    let h = Histogram.create () in
    Histogram.add h ns;
    hs.(i) <- Some h

let mean_ns p = match hist p with Some h -> Histogram.mean h | None -> 0.0
let samples p = match hist p with Some h -> Histogram.count h | None -> 0

let counters () =
  let acc = ref [] in
  Array.iteri
    (fun i n -> if n <> 0 then acc := (Probe.name (Probe.of_id i), n) :: !acc)
    (Sched.probe_counts ());
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Closure-free form of {!timed} for hot call sites: bracket the section
   with [timed_begin]/[timed_end] instead of wrapping it in a lambda. *)
let timed_begin () = Sched.now ()

let timed_end p t0 =
  let dt = Sched.now () - t0 in
  add_sample p dt;
  (* The probe carries its subsystem, so every timed section doubles as a
     correctly-categorized trace span when tracing is on. Host-only. *)
  Trace.complete p ~dur:dt

let timed p f =
  let t0 = timed_begin () in
  let r = f () in
  timed_end p t0;
  r
