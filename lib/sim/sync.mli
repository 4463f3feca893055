(** Synchronization primitives in virtual time.

    FIFO-fair and deterministic: waiters are woken in arrival order at the
    current virtual instant. *)

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  (** Raises [Invalid_argument] if the mutex is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically release the mutex and block; re-acquires before return. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val value : t -> int
end

(** Single-assignment cell: the rendezvous used for asynchronous IO
    completion ([msnap_wait], disk interrupts). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled; immediate if already filled. *)
end

(** {2 Hand-offs that carry failure}

    Every place that batches callers or fans IO out hands back a result
    cell, so a failure (a power cut mid-IO, say) reaches every waiter as
    its exception: none stays parked after its producer failed. *)

type 'a cell = ('a, exn) result Ivar.t

val await : 'a cell -> 'a
(** Block until filled; return the value or raise the exception. *)

val fork_join : ?name:string -> (unit -> unit) list -> unit
(** [fork_join jobs] runs the jobs as concurrent threads, waits for all
    of them, even past a failure, and raises the first failure in list
    order; no job's exception reaches {!Sched.run}. [?name] names the
    threads.

    Its simulated semantics equal spawning one thread per job (as
    {!Sched.spawn}, in list order) and awaiting their outcomes in list
    order: the same interleaving, clock, CPU buckets, and tids for
    every thread spawned afterwards. When nothing else is due at the
    current instant, the first job runs in the caller's own fiber
    ({!Sched.claim_inline}), saving a thread, a wake-up and two
    run-queue events; inside that job {!Sched.self} is the caller, the
    one intended difference. *)

(** Flat combining (group commit). *)
module Group : sig
  type 'a t

  val create : unit -> 'a t

  val submit : 'a t -> round:('a list -> unit) -> 'a -> unit cell -> unit
  (** [submit g ~round item cell] queues [item]. If no round is running,
      the caller leads: it applies its [round] to everything queued, in
      arrival order, until the queue is empty (items arriving during a
      round join the next), filling each round's cells [Ok ()] in
      arrival order. A round that raises fills its own cells, then every
      cell queued behind it, with the exception, and leaves the group
      idle for the next [submit]. A follower returns at once. [submit]
      never raises from [round]: callers {!await} their cell. *)
end
