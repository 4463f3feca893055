(** Parallel simulation cells: independent [Sched.run] measurements
    executed on the [Msnap_util.Taskpool] domains while their results
    are consumed in program order.

    A cell is the unit of intra-experiment parallelism. Each cell body
    is one (or more) self-contained deterministic simulation — own
    seeds, own machines, no shared mutable state — so {e which} domain
    runs it and {e when} are pure host decisions. The cell layer makes
    that safe by construction:

    - the body runs under its own [Trace] scope
      ([Trace.collect_as]), recording iff the submitter's scope was, so
      a worker (or an await-helping experiment domain) never mixes cell
      events into whatever else it was doing;
    - {!force} splices the cell's dump into the calling domain's scope
      ([Trace.append]) in force order, exactly where a serial run would
      have put it.

    [Metrics] figures need no isolation: they belong to the [Sched.run]
    that recorded them, so a body that wants them returns them in its
    value. A cell carries back only its value and its trace.

    With zero pool workers a cell runs inline at {!force} — serial
    execution is the degenerate case, and its observable output is the
    contract: parallel runs must be byte-identical to it.

    Do not call {!submit} or {!force} from inside [Sched.run], and do
    not call {!force} from inside another cell's body: cells are
    siblings, not a nesting structure. *)

type 'a t

val submit : (unit -> 'a) -> 'a t
(** Queue the body on the task pool. Its trace settings (on/off,
    verbosity, buffer cap) are the submitter's scope's at submit
    time. *)

val share : 'a t -> 'a t
(** Another handle on the same body, which runs once however many
    handles there are. Each handle splices the trace once, into the
    scope of the domain that forces it, so every reader of a shared
    measurement records what running the body itself would have. *)

val force : 'a t -> 'a
(** Wait for the body (running it inline if no domain picked it up),
    splice its trace into this domain's scope, and return its value.
    Idempotent: only the first call splices. Re-raises the body's
    exception, in which case the cell's trace is discarded. *)
