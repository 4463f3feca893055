(** Physical memory: frame allocation and [vm_page] metadata.

    Each frame is a real 4 KiB [Bytes.t] plus the per-page metadata MemSnap
    needs: the "checkpoint in progress" flag (§3) and the reverse mappings
    used to find every page table referencing the frame.

    The frame table is a flat non-optional [page array] (with
    {!null_page} as the sentinel) and the reverse map is a small inline
    vector with O(1) swap-removal — the fault path allocates nothing
    beyond the frames themselves. *)

type page = {
  frame : int;
  data : Bytes.t;
  mutable ckpt_in_progress : bool;
      (** MemSnap's per-frame in-flight COW mark: set while a
          μCheckpoint's IO references the frame, so a writer copies it
          instead of mutating it. Aurora does not use it; its in-flight
          mark is the PTE's COW bit ({!Pte.cow}). *)
  rmap : Ptloc.t Msnap_util.Fvec.t;
      (** Every PTE currently mapping this frame. Iteration order is a
          host-side artifact (swap-removal); use the [rmap_*] helpers. *)
  mutable owner : int;
      (** Thread id of the dirty-set owner, or [-1]. Used by MemSnap to
          detect property-③ violations in debug checks. *)
}

val null_page : page
(** Sentinel for flat frame tables: [frame = -1], empty data. Never
    returned by {!alloc}. *)

val is_null : page -> bool

type t

val create : unit -> t

val alloc : t -> page
(** Allocate a zeroed frame, charging [Costs.page_alloc]. *)

val free : t -> page -> unit
(** Return a frame to the free list. The caller must have removed it from
    every page table ([rmap] must be empty). *)

val get : t -> int -> page
(** Frame metadata by frame number. *)

val copy_page : t -> page -> page
(** Allocate a frame and copy [src]'s contents into it (the COW fault
    body), charging [Costs.page_copy]. *)

val live_frames : t -> int
val peak_frames : t -> int

val dispose : t -> unit
(** End-of-run teardown: return every frame's backing buffer to
    [Msnap_util.Pool]. The physical map must never be used again. *)

val rmap_add : page -> Ptloc.t -> unit

val rmap_remove : page -> Ptloc.t -> unit
(** Remove the entry for [loc] (physical PTE identity) by swapping the
    last entry into its slot: O(1), order not preserved. *)

val rmap_is_empty : page -> bool
val rmap_length : page -> int
val rmap_iter : (Ptloc.t -> unit) -> page -> unit
val rmap_clear : page -> unit
val rmap_get : page -> int -> Ptloc.t
