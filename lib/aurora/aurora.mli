(** The Aurora single-level-store baseline (SOSP '21), reproduced at the
    mechanism level the paper compares against (§2, Table 2, Fig. 3,
    Tables 9/10).

    Aurora persists memory regions with "system shadowing":

    + stop every application thread at a safe point;
    + walk the whole mapping's page tables, collecting pages dirtied since
      the previous checkpoint and applying COW protection to *all* present
      pages (the shadow object);
    + resume threads and synchronously flush the dirty pages;
    + "collapse" the shadow back into the base object — another pass whose
      cost is proportional to the mapping size, not the dirty set.

    Writes racing with an in-flight checkpoint hit the COW path and are
    redirected to fresh frames; the shadow frames keep the snapshot stable.
    A region supports one outstanding checkpoint; concurrent callers are
    flat-combined into the next round. Both properties reproduce the cost
    structure of Table 2 (stall / shadow / IO / collapse) and the
    contention behaviour Table 9 blames for Aurora's RocksDB throughput. *)

module Kernel : sig
  type t

  val create :
    aspace:Msnap_vm.Aspace.t ->
    store:Msnap_objstore.Store.t ->
    unit ->
    t
  (** A kernel that checkpoints [aspace]'s regions into [store]. *)

  val boot : format:bool -> Msnap_blockdev.Device.t -> t
  (** A whole machine over the device: format the object store when
      [format] (else mount it), then create physical memory and the one
      process whose address space the kernel checkpoints. *)

  val dispose : t -> unit
  (** End-of-run teardown of a booted kernel: return its store's and its
      frames' pooled buffers. The kernel must be idle and never used
      again; the device is disposed on its own. *)

  val aspace : t -> Msnap_vm.Aspace.t
  (** The process the kernel checkpoints. *)

  val register_thread : t -> unit
  (** Declare the calling thread a participant: application threads must
      register so stop-the-world knows how many safe-point round-trips to
      pay for, and so their region writes park during the stall window. *)
end

module Region : sig
  type t

  val create : Kernel.t -> name:string -> va:int -> len:int -> t
  (** Map a persistent region at [va], backed by an object of the same
      name in the kernel's store (restored if it exists). *)

  val base : t -> int
  val length : t -> int

  val write : t -> off:int -> Bytes.t -> unit
  (** Store through the region mapping. Parks while a checkpoint has the
      world stopped. *)

  val read : t -> off:int -> len:int -> Bytes.t

  val read_into : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
  (** [read] into a caller-owned buffer — same charges, no allocation. *)

  val checkpoint : t -> unit
  (** Synchronous region checkpoint (flat-combined across callers). *)

  type breakdown = { stall : int; shadow : int; io : int; collapse : int }
  (** Nanoseconds per phase — the Table 2 decomposition. *)

  val last_breakdown : t -> breakdown option
  (** Breakdown of the region's most recent checkpoint. *)
end

val checkpoint_app : Kernel.t -> unit
(** Application checkpoint: stop the world, shadow every region *and* the
    rest of the address space, serialize OS state, flush, collapse. *)
