module Histogram = Msnap_util.Histogram

(* Counters and histograms are domain-local so that experiments running in
   parallel bench domains cannot observe each other's samples. Within a
   domain the behavior is identical to the old process-global tables.
   Storage is keyed by the probe's wire name, so two probes that share a
   name address the same counter regardless of subsystem. *)
type store = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { counters = Hashtbl.create 32; hists = Hashtbl.create 32 })

let store () = Domain.DLS.get store_key

let reset () =
  let s = store () in
  Hashtbl.reset s.counters;
  Hashtbl.reset s.hists

let incr_name ?(by = 1) name =
  let s = store () in
  match Hashtbl.find s.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add s.counters name (ref by)

let count_name name =
  match Hashtbl.find_opt (store ()).counters name with
  | Some r -> !r
  | None -> 0

let get_hist name =
  let s = store () in
  match Hashtbl.find s.hists name with
  | h -> h
  | exception Not_found ->
    let h = Histogram.create () in
    Hashtbl.add s.hists name h;
    h

let add_sample_name name ns =
  incr_name name;
  Histogram.add (get_hist name) ns

let hist_name name = Hashtbl.find_opt (store ()).hists name
let mean_ns_name name = match hist_name name with Some h -> Histogram.mean h | None -> 0.0
let samples_name name = match hist_name name with Some h -> Histogram.count h | None -> 0

let incr ?by p = incr_name ?by (Probe.name p)
let count p = count_name (Probe.name p)
let add_sample p ns = add_sample_name (Probe.name p) ns
let hist p = hist_name (Probe.name p)
let mean_ns p = mean_ns_name (Probe.name p)
let samples p = samples_name (Probe.name p)

let counters () =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) (store ()).counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- cell isolation (see Msnap_sim.Cell) ---

   A cell runs with a private store so that (a) its samples cannot leak
   into whatever experiment happens to share the domain, and (b) the
   experiment sees the cell's samples only at force time, in submission
   order, regardless of which domain ran the body when. *)

type snapshot = store

let cell_begin () =
  let saved = store () in
  Domain.DLS.set store_key
    { counters = Hashtbl.create 32; hists = Hashtbl.create 32 };
  saved

let cell_end saved =
  let cell = store () in
  Domain.DLS.set store_key saved;
  cell

let cell_merge cell =
  let s = store () in
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find s.counters name with
      | cur -> cur := !cur + !r
      | exception Not_found -> Hashtbl.add s.counters name (ref !r))
    cell.counters;
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find s.hists name with
      | cur -> Histogram.merge cur h
      | exception Not_found -> Hashtbl.add s.hists name h)
    cell.hists

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
