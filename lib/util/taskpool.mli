(** A process-wide fork/join pool over OCaml 5 domains.

    There is exactly one pool per process, so a single [-j N] budget
    bounds every domain doing simulation work: the bench runner submits
    whole experiments as {!Heavy} tasks and each experiment submits its
    independent [Sched.run] measurements as {!Light} cells — both drain
    on the same [N] domains (workers plus the submitting domain, which
    helps while it {!await}s).

    Determinism contract: the pool schedules {e host} work only. A task
    body must be self-contained with respect to domain-local state —
    the simulation cell layer ([Msnap_sim.Cell]) guarantees this by
    running the body under its own trace scope, and the other
    [Domain.DLS] state a body touches (buffer pools, host counters) is
    host-only — so which domain runs a task, and when, can never change
    a simulated value.

    With zero workers, tasks run inline at {!await} in program order:
    serial execution is the degenerate case, not a separate code
    path. *)

type cls =
  | Light  (** a simulation cell: anyone may help run it *)
  | Heavy
      (** a whole experiment: only picked up by domains that are not
          already inside a task, so experiments never nest *)

type 'a task

val submit : ?cls:cls -> (unit -> 'a) -> 'a task
(** Enqueue [f] (default {!Light}). With zero workers nothing runs
    until {!await}. *)

val await : 'a task -> 'a
(** Block until the task finished, returning its result or re-raising
    its exception (with the original backtrace). Never idles while
    eligible queued work exists: it runs its own task inline if no one
    claimed it yet, and otherwise helps with queued tasks — {!Light}
    ones only if the calling domain is itself inside a task. Must not
    be called from inside a simulation ([Sched.run]). *)

val ensure_workers : int -> unit
(** Grow the pool to at least [n] worker domains (never shrinks).
    [ensure_workers 0] is a no-op: the pool then runs everything
    inline at {!await}. *)

val worker_count : unit -> int

val on_worker_init : (unit -> unit) -> unit
(** Register a hook run by every {e future} worker domain before it
    processes tasks (e.g. pre-warming the domain-local buffer pool).
    Call before {!ensure_workers}. *)

val shutdown : unit -> unit
(** Drain every queued task, join all worker domains, and reset the
    pool (a later {!ensure_workers} restarts it). Call after all tasks
    are awaited — and always before process exit once workers were
    started, so no domain outlives [main]. *)
