(** Size-classed, per-domain free lists of large [Bytes.t] buffers,
    served from host memory outside the OCaml heap.

    The data plane's big allocations — 4 KiB page frames, FS cache
    blocks, WAL/journal staging, object-store payload copies and radix
    node images — are all long-lived. The pool recycles them
    explicitly: [alloc] pops a parked buffer of the exact size when one
    is available (a {e hit}), otherwise carves a fresh one from a slab
    (a {e miss}); [recycle] parks a buffer for reuse once its owner is
    done with it.

    {2 Host memory}

    Every pooled buffer, and every chunk from {!alloc_chunk}, lives in
    2 MiB slabs mapped outside the OCaml heap and advised for
    transparent huge pages where the host supports it. A pooled buffer
    is an ordinary [Bytes.t] whose header marks it out of heap: the GC
    never marks, sweeps or counts it, so pooled memory neither paces the
    major GC nor shows in [Gc] counters. Its data starts on a 64-byte
    line. Slabs are never unmapped and buffers are never freed.

    {2 Rules}

    - Recycle, or the buffer is lost to the pool until the process
      exits. Nothing reclaims a dropped pooled buffer; every owner of
      pooled memory (machines, stores, file systems, pagers) must be
      disposed at the end of its run. Whoever builds an owner inside a
      simulation registers its dispose with [Msnap_sim.Sched.on_exit],
      which runs it as the run returns and drops it if the run raises:
      a dropped buffer is only a leak, one recycled too early a
      corruption.
    - Pooling is host-only. A pooled buffer carries no simulated cost of
      its own; every [Sched.cpu] charge made around an allocation must
      be identical whether the buffer came from the free list or from a
      slab.
    - [alloc] has [Bytes.create] semantics: the contents are
      unspecified. Callers that relied on [Bytes.make n '\000'] must
      use [alloc_zeroed] (or fill explicitly).
    - A buffer may be recycled only by its unique owner, only once, and
      never while any live reference can still read or write it. For
      device-visible buffers the Slice ownership rule marks the safe
      point: recycle at (or after) command completion, never while a
      slice over the buffer is lent to an in-flight command.
    - Buffers smaller than [min_pooled] are not pooled: [alloc] is a
      plain [Bytes.create] and [recycle] a no-op. Small buffers are
      minor-heap business the GC already handles well.

    Free lists and slab cursors are per-domain ([Domain.DLS]): bench
    experiments running on a `-j` pool never contend for a free list
    or a slab. A buffer carved on one domain may be
    recycled on another; it is then parked there.

    {2 Debug checks}

    Under {!debug_checks} (the same switch as [Slice.debug_checks]) the
    pool poisons every recycled buffer and re-verifies the poison when
    the buffer is next handed out, so a stale writer that mutates a
    buffer after recycling it is caught at the next [alloc]; recycling
    the same buffer twice, or a buffer the pool did not carve from a
    slab (a heap [Bytes]), raises immediately. All raise {!Violation}. *)

type class_stats = {
  cs_size : int;  (** class buffer size in bytes (classes are exact-size) *)
  cs_hits : int;  (** allocs served from the free list *)
  cs_misses : int;  (** allocs carved fresh from a slab *)
  cs_recycles : int;  (** buffers returned *)
  cs_outstanding : int;  (** allocs minus recycles (still with callers) *)
  cs_retained : int;  (** buffers currently parked on the free list *)
}

type totals = {
  t_hits : int;
  t_misses : int;
  t_recycles : int;
  t_outstanding : int;
  t_retained_bytes : int;
}

exception Violation of string
(** Raised under {!debug_checks} on a double recycle, on recycling a
    buffer not carved from a slab, or on a mutation of a buffer after it
    was recycled (use-after-recycle). *)

val min_pooled : int
(** Smallest buffer size the pool manages (4096 bytes). *)

val debug_checks : bool ref
(** The same ref as [Slice.debug_checks] — one switch arms every
    data-plane integrity check. *)

val alloc : int -> Bytes.t
(** [alloc n] returns a buffer of exactly [n] bytes with {e unspecified}
    contents ([Bytes.create] semantics; poisoned under debug). *)

val alloc_zeroed : int -> Bytes.t
(** [alloc n] followed by a zero fill — drop-in for [Bytes.make n '\000']. *)

val recycle : Bytes.t -> unit
(** Park a buffer for reuse by a later [alloc] of the same size. The
    caller must own the buffer exclusively and must not touch it again.
    No-op for buffers smaller than [min_pooled]. *)

type chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val alloc_chunk : int -> chunk
(** [alloc_chunk n] carves a fresh [n]-byte view of slab memory, [n] a
    positive multiple of 64 up to 2 MiB. The view starts on a 64-byte
    line and its contents are unspecified. Chunks are not pooled: the
    caller keeps and reuses its chunks itself, and a chunk it drops is
    lost until exit. Raises [Invalid_argument] on any other [n]. *)

val stats : unit -> class_stats list
(** Per-class counters for this domain, sorted by class size. *)

val totals : unit -> totals
(** Aggregate counters for this domain. *)

val clear : unit -> unit
(** Drop every parked buffer (lost to the pool until exit) and reset the
    counters. Test isolation helper. *)
