(** Deterministic discrete-event scheduler with green threads.

    Every component of the reproduction — the VM subsystem, the block
    device, the file systems, the databases — runs on this scheduler. Time
    is virtual (integer nanoseconds) and only advances when a thread
    declares that work costs time ({!cpu}) or sleeps ({!delay}); together
    with the seeded PRNGs this makes every experiment bit-for-bit
    reproducible.

    Threads are one-shot effect-handler coroutines (OCaml 5 [Effect.Deep]).
    There is no parallelism: exactly one thread runs at a time and runs
    until it blocks, so the simulated kernel code can use plain mutable
    state between scheduling points — just like a uniprocessor kernel with
    interrupts disabled. Contention and concurrency *over time* are still
    modelled faithfully because threads interleave at every [cpu]/[delay]/
    blocking call. *)

type tid

exception Deadlock of string
(** Raised by {!run} when no thread is runnable but some have not finished. *)

exception Violation of string
(** Raised (only under [Msnap_util.Slice.debug_checks]) when a stale
    waker is woken — i.e. after its thread already resumed. With checks
    off, wakers are recycled through a per-engine free list at resume
    time, so a stale wake would silently target the wrong parked thread;
    under checks the free list is disabled, released wakers are
    poisoned, and the bug surfaces here. *)

val run : (unit -> 'a) -> 'a
(** [run main] executes [main] as the first thread of a fresh simulation and
    returns its result once every spawned thread has finished. Resets the
    clock, CPU accounting, metric columns and {!on_exit} hooks. Not
    reentrant. *)

val on_exit : (unit -> unit) -> unit
(** Register a host-only teardown (typically an [X.dispose]) with the
    running simulation. When {!run}'s [main] returns normally, the hooks
    run newest first, after the engine is gone: a hook that reads the
    clock, charges time or registers another hook raises
    [Invalid_argument]. A run that raises (a thread failure, {!Deadlock})
    runs none of them, since buffer ownership may be mid-transfer and a
    dropped buffer is only a leak. Outside {!run}, raises
    [Invalid_argument]. *)

val now : unit -> int
(** Current virtual time in nanoseconds. Must be called inside {!run}:
    outside it, raises [Invalid_argument]. *)

val running : unit -> bool
(** Is a simulation active on this domain? *)

val spawn : ?name:string -> (unit -> unit) -> tid
(** Start a new thread at the current time. *)

val join : tid -> unit
(** Block until the thread finishes. Reraises nothing: a thread failure
    aborts the whole simulation. *)

(** {2 Spawn-and-join in the caller's fiber}

    The primitive under {!Msnap_sim.Sync.fork_join}: the first of its
    jobs runs in the waiting fiber instead of a thread of its own, with
    the same simulated semantics as [spawn] followed at once by a wait
    for it. The two calls come as a pair:
    [if claim_inline () then (spawn the siblings; run_inline job)]. *)

val claim_inline : unit -> bool
(** [false], with nothing changed, if something else is due at the
    current instant (the spawned thread would have queued behind it):
    spawn the job instead. Otherwise takes the tid [spawn] would have
    taken, so threads spawned afterwards keep their numbers, and
    returns [true]; the caller then spawns any siblings and calls
    {!run_inline}, with no scheduling point in between. *)

val run_inline : (unit -> unit) -> unit
(** Run the claimed job in the calling fiber as its own thread would
    have run: {!cpu} is charged to the user bucket, and once it returns
    or raises, the caller yields if something became due meanwhile,
    since that is where the join's wake-up would have queued it. The
    job's exception then propagates. The one visible difference: inside
    the job, {!self} is the caller. *)

val self : unit -> tid
val tid_int : tid -> int
val name : tid -> string

val delay : int -> unit
(** Let virtual time pass without consuming CPU (e.g. waiting on a device). *)

val cpu : int -> unit
(** Spend CPU time: advances the clock and charges the current accounting
    bucket (see {!with_bucket}). *)

val yield : unit -> unit
(** Reschedule at the same instant behind already-runnable threads. *)

(** {2 Low-level blocking} *)

type waker
(** A one-shot capability to make a suspended thread runnable again. *)

val suspend : (waker -> unit) -> unit
(** [suspend f] parks the calling thread and hands [f] the waker. Used to
    build mutexes, condition variables and IO completion. *)

val wake : waker -> unit
(** Make the parked thread runnable at the current virtual time. Waking
    an already-woken waker before its thread resumes is a no-op; waking
    it after the thread resumed is a bug (wakers are pooled and may
    already belong to another park), detected under
    [Msnap_util.Slice.debug_checks] — see {!Violation}. *)

(** Intrusive FIFO queue of parked wakers: the building block for the
    {!Msnap_sim.Sync} primitives. Links live inside the waker, so
    enqueue/dequeue allocate nothing. A waker must sit in at most one
    Waitq at a time, and must be removed (taken) before it is woken. *)
module Waitq : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool

  val add : t -> waker -> unit
  (** Append (FIFO). *)

  val take : t -> waker
  (** Remove and return the oldest waker; [Invalid_argument] if empty. *)

  val wake_all : t -> unit
  (** Drain the queue, waking each waker in FIFO order. *)
end

(** {2 CPU accounting} *)

val with_bucket : Probe.Bucket.t -> (unit -> 'a) -> 'a
(** Attribute all {!cpu} time spent in the callback (on this thread) to the
    named bucket. Nests; the innermost bucket wins. *)

val account_report : unit -> (string * int) list
(** Total {!cpu} nanoseconds charged per bucket this run, sorted by name. *)

val account_total : unit -> int
(** Sum across buckets. *)

(** {2 Metric columns}

    [Metrics]' counters and histograms belong to the run, like the CPU
    buckets: every {!run} starts with none, and they are read inside
    the run that recorded them. [Metrics] is the typed view over these;
    nothing else should call them. Outside {!run} they raise
    [Invalid_argument], as {!now} does. *)

val probe_counts : unit -> int array
(** This run's counter column, indexed by {!Probe.id} and grown to
    cover every probe interned so far. Written in place. *)

val probe_hists : unit -> Msnap_util.Histogram.t option array
(** The histogram column, indexed and grown like {!probe_counts}. *)

(** {2 Host-side statistics} *)

val host_counters : unit -> int * int * int
(** [(events, waker_allocs, waker_reuses)] — cumulative totals for this
    domain over all completed runs: run-queue events executed, wakers
    freshly allocated, and wakers recycled from the free list. Host
    observability only (BENCH_sim.json); deliberately not Metrics
    counters, so they can never appear in determinism digests. *)
