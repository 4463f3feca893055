(** Striped volume over several disks (RAID-0).

    The paper's testbed stripes two Intel 900P SSDs in 64 KiB blocks; this
    module reproduces that layout. IO that spans stripe units is split into
    per-device commands issued concurrently, so large sequential writes see
    the aggregate bandwidth of the member devices — the effect behind
    MemSnap beating single-outstanding-IO direct writes at large sizes in
    Table 6.

    Zero-copy: splitting produces {e sub-slices} of the caller's segments
    (no payload bytes move), so the ownership rule of {!Disk} extends to
    every write through this module. Reads through {!read_into} land directly in
    the caller's buffer, one disjoint range per member device.

    This module is the data path only. Everything that acts on the
    member disks one by one — size, power, statistics, teardown, crash
    recording — is {!Device}'s, over {!disks}. *)

module Slice = Msnap_util.Slice

type t

val create : ?unit_size:int -> Disk.t list -> t
(** [unit_size] defaults to 64 KiB. Requires at least one disk; all disks
    must have equal size. *)

val writev : t -> (int * Slice.t) list -> unit
(** One vectored command per member device; completes when all devices do.
    Segments obey the ownership rule. Sector-adjacent segments that are
    contiguous in the same backing buffer are coalesced into single wider
    sub-slices per member — host-only; simulated latency and committed
    (or torn) bytes are identical to the unmerged sequence. *)

val write_slice : t -> off:int -> Slice.t -> unit
(** [writev] of one segment. *)

val read_into : t -> off:int -> Slice.t -> unit
(** Fill the caller's buffer directly from the member devices. *)

val flush : t -> unit

val disks : t -> Disk.t array
(** The member disks in the order given to {!create}: unit [k] of the
    volume lives on member [k mod n]. Not a copy: the caller must not
    mutate it. *)
