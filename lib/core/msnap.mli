(** MemSnap: per-thread μCheckpoints — the paper's core contribution.

    The API mirrors Table 4 of the paper:

    {v
    msnap_open (name, &addr, len, flags) -> md      open_region / recover
    msnap_persist (md, flags) -> epoch              persist
    msnap_wait (md, epoch)                          wait
    v}

    Mechanisms implemented exactly as §3 describes:

    - {b Hardware-assisted per-thread dirty tracking}: region pages start
      read-only; the first store takes a minor write fault whose handler
      appends the page to the *calling thread's* dirty list and records the
      PTE's location in the thread's trace buffer.
    - {b μCheckpoints}: [persist] takes the calling thread's dirty set (or
      one region's slice of it), flags each page "checkpoint in progress",
      resets read-protection by revisiting the recorded PTE slots directly
      (no page-table walks), issues one TLB shootdown, and commits the
      pages to the COW object store as one atomic epoch.
    - {b Unified COW}: a store to a page whose checkpoint is in flight is
      redirected to a fresh frame — across *every* process mapping the page
      (the physical page's reverse mappings) — so neither the writer nor
      the flush ever blocks on the other.
    - {b Fixed addresses}: regions always map at the same virtual address
      (persisted in the object metadata), so pointers inside persistent
      data stay valid across crashes.

    Thread identity comes from the simulator scheduler; every API entry
    must run inside [Sched.run]. *)

type t
(** The MemSnap kernel state: attached address spaces, per-thread dirty
    sets, and the backing object store. *)

type md
(** Region descriptor (opaque, like a POSIX shm descriptor). *)

type epoch = int

val init : store:Msnap_objstore.Store.t -> t

val attach : t -> Msnap_vm.Aspace.t -> unit
(** Let a (simulated) process use MemSnap regions. The first attached
    aspace is the default for [open_region]. *)

val boot : format:bool -> Msnap_blockdev.Device.t -> t
(** A whole machine over [dev]: format the object store when [format]
    (else mount what the device holds), then create physical memory and
    one process, attached as the default address space. Raises
    [Store.Corrupt] before allocating anything when [dev] holds no
    valid superblock. *)

val aspace : t -> Msnap_vm.Aspace.t
(** The default (first attached) address space. *)

val dispose : t -> unit
(** End-of-run teardown of a booted kernel: return its store's and its
    frames' pooled buffers. The kernel must be idle and never used
    again. The device is not touched: it outlives its kernels across
    crash and recovery, and is disposed on its own. *)

(** {2 The API of Table 4} *)

val open_region : t -> ?aspace:Msnap_vm.Aspace.t -> name:string -> len:int -> unit -> md
(** [msnap_open]: create or open the region. An existing region is mapped
    back at its original fixed address and its pages lazily fault in from
    the last committed μCheckpoint; a new region is placed in the MemSnap
    arena at the high end of the address space. [?aspace] (default: the
    first attached) must be attached, or [Invalid_argument] is raised. *)

val persist :
  t ->
  ?region:md ->
  ?mode:[ `Sync | `Async ] ->
  ?scope:[ `Thread | `Global ] ->
  unit ->
  epoch
(** [msnap_persist]. Defaults: the paper's defaults — synchronous, calling
    thread's dirty set, all regions ([?region] = the descriptor-[-1]
    form). Returns the epoch the μCheckpoint will commit as (for the named
    region, or the last region committed when [?region] is omitted). *)

val wait : t -> md -> epoch -> unit
(** [msnap_wait]: block until the region's durable epoch reaches [epoch].
    Raises if that μCheckpoint failed (device power loss). *)

(** {2 Region access}

    Applications hold the base address and read/write the mapping through
    their address space; these helpers do exactly that. *)

val addr : md -> int
val length : md -> int
val name : md -> string
val durable_epoch : md -> epoch

val write : t -> md -> off:int -> Bytes.t -> unit
val read : t -> md -> off:int -> len:int -> Bytes.t

val read_into : t -> md -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [read] into a caller-owned buffer — same charges, no allocation. *)

val write_string : t -> md -> off:int -> string -> unit
(** {!write} of the string's bytes without staging: they feed the
    per-page copies directly (same charges, no [Bytes.of_string]). *)

val map_into : t -> md -> Msnap_vm.Aspace.t -> unit
(** Map an existing region into another attached process at the same fixed
    address (PostgreSQL's shared-buffer arrangement). Raises
    [Invalid_argument] if the process is not attached: a persist shoots
    down the TLBs of attached processes only. *)

(** {2 Introspection (tests, benches)} *)

val dirty_count : t -> int
(** Pages currently in the calling thread's dirty set. *)

val dirty_count_of_region : t -> md -> int

exception Property_violation of string
(** Raised (when [strict] checking is on) if two threads dirty the same
    page without an intervening persist — the condition Fig. 2's property
    ③ obliges applications to prevent. *)

val set_strict : t -> bool -> unit
(** Default on. *)

val region_by_name : t -> string -> md option
(** Already-open region by name. *)
