(** Binary min-heap: the scheduler's run queue. Entries pop in
    lexicographic (prio, seq) order, where seq is the push count, so
    equal priorities pop in push order. Parallel int and value columns
    that grow by doubling: push and pop allocate nothing in steady
    state.

    Monotone: {!push} requires [prio >= 0] and [prio >=] the last
    popped priority; [Invalid_argument] otherwise. The scheduler
    satisfies this by construction: events are scheduled at or after
    the virtual clock.

    Under [Slice.debug_checks], every pop is audited against the
    previous one for strict (prio, seq) order. *)

type 'a t

val create : ?initial:int -> unit -> 'a t
(** [initial] sizes the columns (they grow by doubling). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> unit
(** O(log n). FIFO among equal priorities. *)

val min_prio : 'a t -> int
(** Priority of the next entry, or [-1] when empty. An O(1) read of
    the root: safe to probe at any time, in particular from the
    scheduler's delay fast path between pops. *)

val pop_min : 'a t -> 'a
(** Remove and return the next entry: lowest priority, FIFO among
    equals. O(log n). [Invalid_argument] when empty. *)
