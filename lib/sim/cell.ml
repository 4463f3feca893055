module Taskpool = Msnap_util.Taskpool

type 'a t = {
  task : ('a * Trace.dump) Taskpool.task;
  mutable forced : 'a option; (* splice exactly once *)
}

let submit f =
  (* Capture the submitter's trace configuration: the body may run on a
     worker, or on a domain helping while it awaits, whose own scope is
     unrelated. The body always runs under its own scope, so no other
     scope catches its events. *)
  let config = Trace.config () in
  let body () =
    if Sched.running () then
      invalid_arg "Cell: task pool reached into a live simulation";
    Trace.collect_as config f
  in
  { task = Taskpool.submit ~cls:Taskpool.Light body; forced = None }

(* [Taskpool.await] serves any number of awaiters and [Trace.append]
   only reads the dump, so handles can share one task. *)
let share c = { task = c.task; forced = None }

let force c =
  match c.forced with
  | Some v -> v
  | None ->
    if Sched.running () then
      invalid_arg "Cell.force: called inside Sched.run";
    let v, d = Taskpool.await c.task in
    (* Splice the cell's trace into this domain's scope exactly where a
       serial run would have put it. *)
    Trace.append d;
    c.forced <- Some v;
    v
