(* The crash-schedule model checker.

   One recording pass runs the scripted workload crash-free under
   [Sched.run] with a recorder attached, yielding the boundary/command
   history and the workload's value history. The checker then picks
   crash points — every [(boundary, torn_seed)] pair when the space is
   small, a seeded reservoir sample otherwise — and for each point, in
   its own [Sched.run] cell: materializes the post-crash image on a
   fresh device, mounts it through the workload's [w_recover], and
   compares the state it dumps against the history's candidate steps.

   Every point is pure host-deterministic work keyed only by
   [(prefix, torn_seed)], so a failure report is a replayable
   reproducer, and results are collected in submission order — the
   [-j 2] run prints bit-for-bit what the serial run prints. *)

module Device = Msnap_blockdev.Device
module Record = Msnap_blockdev.Record
module Sched = Msnap_sim.Sched
module Rng = Msnap_util.Rng
module Taskpool = Msnap_util.Taskpool

exception Unmountable of string
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type workload = {
  w_name : string;
  w_device : unit -> Device.t;
      (* a fresh device with the same geometry, every call, registered
         for teardown with the running simulation *)
  w_run : Device.t -> Record.t -> History.t;
      (* the scripted workload; must run crash-free and call
         [History.mark_ready] + [History.step] as it goes *)
  w_recover : Device.t -> unit -> (string * string) list;
      (* mount the post-crash device, registering teardown with
         [Sched.on_exit]; the returned closure dumps the recovered state
         in the encoding of the workload's steps *)
}

type failure = { f_prefix : int; f_torn_seed : int; f_msg : string }

type report = {
  r_workload : string;
  r_boundaries : int;
  r_steps : int;
  r_points : int;
  r_failures : failure list;
}

type opts = {
  seeds : int list;  (* torn seeds tried at each boundary *)
  max_points : int;  (* sampling kicks in above this *)
  sample_seed : int;
  jobs : int;  (* domains in total, the caller's included; 1 = serial *)
}

let default_opts = { seeds = [ 1; 2; 3 ]; max_points = 600; sample_seed = 1; jobs = 1 }

(* The recording pass: one crash-free simulated run of the workload
   with the recorder attached. *)
let record_run w =
  Sched.run (fun () ->
      let dev = w.w_device () in
      let record = Record.create () in
      Device.attach_record dev record;
      let hist = w.w_run dev record in
      Device.detach_record dev;
      (record, hist))

(* Crash points in canonical order: boundary-major, seed-minor.
   Exhaustive when the space fits in [max_points]; otherwise a seeded
   reservoir sample of exactly [max_points] points, re-sorted so the
   schedule order (and hence the output) stays canonical. *)
let points ~boundaries ~opts =
  let nseeds = List.length opts.seeds in
  let total = boundaries * nseeds in
  if total <= opts.max_points then
    List.concat_map
      (fun prefix -> List.map (fun s -> (prefix, s)) opts.seeds)
      (List.init boundaries Fun.id)
  else begin
    let rng = Rng.create opts.sample_seed in
    let res = Array.make opts.max_points (0, 0) in
    let i = ref 0 in
    for prefix = 0 to boundaries - 1 do
      List.iter
        (fun s ->
          if !i < opts.max_points then res.(!i) <- (prefix, s)
          else begin
            let j = Rng.int rng (!i + 1) in
            if j < opts.max_points then res.(j) <- (prefix, s)
          end;
          incr i)
        opts.seeds
    done;
    List.sort_uniq compare (Array.to_list res)
  end

(* Does the recovered state match some candidate step at [boundary]?
   Raises [Check_failed] with the floor and the recovered state
   otherwise. *)
let check_state ~label hist ~boundary state =
  let sort = List.sort compare in
  let matches step = sort step.History.s_state = sort state in
  if not (List.exists matches (History.candidates hist ~boundary)) then
    fail "%s: recovered state at boundary %d matches no step >= %d: %s"
      label boundary
      (History.lower_bound hist ~boundary)
      (History.pp_state state)

(* One crash point, in its own simulation cell: reconstruct the image,
   recover, check. Returns [None] on success. A failed recovery or
   check is caught inside the run, so the run returns and tears down
   the device and whatever [w_recover] mounted ([Sched.on_exit]), pass
   or fail. *)
let check_point w record hist ~prefix ~torn_seed =
  let fail msg = Some { f_prefix = prefix; f_torn_seed = torn_seed; f_msg = msg } in
  Sched.run (fun () ->
      let dev = w.w_device () in
      Image.materialize record ~prefix ~torn_seed dev;
      let before_ready = prefix < History.ready hist in
      match w.w_recover dev with
      | exception Unmountable msg ->
        if before_ready then None
        else fail (Printf.sprintf "unmountable: %s" msg)
      | exception exn ->
        fail (Printf.sprintf "recover raised %s" (Printexc.to_string exn))
      | dump -> (
        if before_ready then None
        else
          match check_state ~label:w.w_name hist ~boundary:prefix (dump ()) with
          | () -> None
          | exception Check_failed msg -> fail msg
          | exception exn ->
            fail
              (Printf.sprintf "check raised %s" (Printexc.to_string exn))))

let run ?(opts = default_opts) w =
  Taskpool.ensure_workers (opts.jobs - 1);
  let record, hist = record_run w in
  let boundaries = Record.boundaries record in
  let pts = points ~boundaries ~opts in
  (* Submit every point, await in submission order: with zero workers
     this runs serially inline; with workers the collected results are
     identical because each point is pure in (prefix, torn_seed). *)
  let tasks =
    List.map
      (fun (prefix, torn_seed) ->
        Taskpool.submit (fun () -> check_point w record hist ~prefix ~torn_seed))
      pts
  in
  let failures = List.filter_map Taskpool.await tasks in
  {
    r_workload = w.w_name;
    r_boundaries = boundaries;
    r_steps = History.nsteps hist;
    r_points = List.length pts;
    r_failures = failures;
  }

let pp_failure w f =
  Printf.sprintf "FAIL %s prefix=%d torn_seed=%d: %s" w f.f_prefix
    f.f_torn_seed f.f_msg

let pp_report r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "crashcheck %-10s %4d boundaries %3d steps %4d points %s\n"
       r.r_workload r.r_boundaries r.r_steps r.r_points
       (match r.r_failures with
       | [] -> "ok"
       | fs -> Printf.sprintf "%d FAILURES" (List.length fs)));
  List.iter
    (fun f -> Buffer.add_string b (pp_failure r.r_workload f ^ "\n"))
    r.r_failures;
  Buffer.contents b
