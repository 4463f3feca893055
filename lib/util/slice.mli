(** Byte slices: an immutable view [{buf; pos; len}] into a [Bytes.t],
    the currency of the zero-copy data plane.

    Every layer of the IO stack (block device, stripe, object store, file
    system) passes slices instead of copying payloads into staging
    buffers, so a page frame travels from the application to the disk
    medium with exactly one copy — the commit-time blit into the medium.
    A slice owns nothing: writers change the bytes through [buf].

    {2 The ownership rule}

    A slice handed to a device write ([Disk.writev] and everything built
    on it) must not be mutated until the command completes in virtual
    time. The device logically snapshots the bytes at issue — the crash
    model tears an in-flight command to a sector prefix {e of the bytes
    as they were at issue} — but physically reads them at commit time;
    the ownership rule is what makes the two equivalent. MemSnap upholds
    it with its checkpoint-in-progress COW (an in-flight page frame is
    never mutated in place; writers are redirected to a fresh frame), the
    file systems by keeping dirty cache blocks pinned until their
    writeback command completes.

    One check enforces the rule: under {!debug_checks}, [Disk.writev]
    records a {!checksum} of each segment at issue and re-verifies it at
    commit and at a power-failure tear, so a mutation through any alias
    of the backing buffer fails loudly in tests. *)

type t

val make : Bytes.t -> pos:int -> len:int -> t
(** View of [buf.[pos .. pos+len-1]]. Raises [Invalid_argument] when out
    of bounds. *)

val of_bytes : Bytes.t -> t
(** Whole-buffer view; no copy. *)

val sub : t -> pos:int -> len:int -> t
(** Sub-view, relative to the slice. No copy. *)

val buf : t -> Bytes.t
val pos : t -> int
val length : t -> int

val blit_to_bytes : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
(** Copy out of the slice. *)

val debug_checks : bool ref
(** Default [false]; the test suites turn it on. The one switch for
    every host-side integrity check of the simulator: [Disk]'s
    per-segment checksums (the ownership rule above, plus poisoning of
    disposed medium chunks), [Pool]'s poisoning of recycled buffers,
    [Sched]'s poisoned wakers in place of its free list, and [Minheap]'s
    audit of pop order. None of them changes a simulated value. *)

val checksum : t -> int
(** Content hash of the viewed bytes, which devices take under
    {!debug_checks}. Host-only: never feeds simulated state. *)
