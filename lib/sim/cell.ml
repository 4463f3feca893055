module Taskpool = Msnap_util.Taskpool

(* What a finished cell hands back to the forcing experiment, besides
   its value: the trace store the body recorded into, plus how far it
   advanced its private trace timeline. *)
type 'a outcome = { o_value : 'a; o_store : Trace.snapshot; o_advance : int }

type 'a t = {
  task : 'a outcome Taskpool.task;
  mutable forced : 'a option; (* merge exactly once *)
}

let submit f =
  (* Capture the submitting domain's trace configuration: the body may
     run on a worker whose own trace state is unrelated. *)
  let traced = Trace.is_on () in
  let tverbose = Trace.verbose () in
  let tlimit = Trace.buffer_limit () in
  let body () =
    if Sched.running () then
      invalid_arg "Cell: task pool reached into a live simulation";
    (* Full domain-local isolation: a fresh trace store, a base-0
       trace timeline. The swap — not just a reset — is what
       makes cells safe to run on a domain that is mid-experiment
       (await-helping): the host's store is untouched underneath. *)
    let saved_base = Sched.trace_base () in
    Sched.set_trace_base 0;
    let saved = Trace.cell_begin ~enabled:traced ~verbose:tverbose ~limit:tlimit in
    match f () with
    | v ->
      let advance = Sched.trace_base () in
      let st = Trace.cell_end saved in
      Sched.set_trace_base saved_base;
      { o_value = v; o_store = st; o_advance = advance }
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Trace.cell_end saved);
      Sched.set_trace_base saved_base;
      Printexc.raise_with_backtrace e bt
  in
  { task = Taskpool.submit ~cls:Taskpool.Light body; forced = None }

(* [Taskpool.await] serves any number of awaiters and [Trace.cell_merge]
   only reads the cell's store, so handles can share one task. *)
let share c = { task = c.task; forced = None }

let force c =
  match c.forced with
  | Some v -> v
  | None ->
    if Sched.running () then
      invalid_arg "Cell.force: called inside Sched.run";
    let o = Taskpool.await c.task in
    (* Splice the cell's trace into this domain's store exactly where a
       serial run would have put it: the timeline resumes at the current
       base and advances by what the cell's own runs consumed. *)
    let base = Sched.trace_base () in
    Trace.cell_merge ~shift:base o.o_store;
    Sched.set_trace_base (base + o.o_advance);
    c.forced <- Some o.o_value;
    o.o_value
