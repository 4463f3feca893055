(** Page-table entry words.

    A PTE is a plain integer: flag bits in the low bits, the physical frame
    number above {!Addr.page_shift}. The [writable] bit is the hardware
    write-permission bit MemSnap clears to arm dirty tracking; [cow] is the
    software bit Aurora's shadowing uses: set on every present PTE of a
    region while its checkpoint is in flight, so a write fault on such a
    PTE copies the frame instead of mutating it. *)

type t = int

val empty : t

val present : t -> bool
val writable : t -> bool
val cow : t -> bool
val accessed : t -> bool

val make : frame:int -> writable:bool -> t
val frame : t -> int

val set_writable : t -> bool -> t
val set_cow : t -> bool -> t
val set_frame : t -> int -> t

(** {2 Whole-leaf passes}

    Aurora's checkpoint passes over one window [s0..s1] (inclusive) of a
    page-table leaf, as {!Ptable.iter_leaves} hands it over. They run in
    C and touch only the flag bits below; frames and the bits of slots
    that are not present are left as they are. On x86-64 with GCC 12 or
    later each is built once per ISA level (x86-64-v4, v3, default) and
    the host's best clone runs; every clone returns the same words,
    counts and indices. Both raise
    [Invalid_argument] on a window outside the leaf (or a [dirty]
    scratch shorter than the window) before anything is written. *)

val shadow_leaf : int array -> s0:int -> s1:int -> dirty:int array -> int
(** Shadow: every present slot loses [writable] and gains [cow]. The
    slot indices (within the leaf) of the slots that were present and
    writable, the dirty set, are written to [dirty.(0 .. nd-1)] in
    ascending order; the rest of [dirty] up to the window's length is
    scratch, which the kernel may overwrite. It works in 16-slot blocks
    and lists slots only from blocks that hold a dirty one, so a
    mostly clean window costs one vector pass per block. Returns the
    present count and [nd], read back with {!leaf_present} and
    {!leaf_dirty}. Allocation-free. *)

val collapse_leaf : int array -> s0:int -> s1:int -> int
(** Collapse: every present slot loses [cow]. Returns the present count.
    Allocation-free. *)

val leaf_present : int -> int
val leaf_dirty : int -> int
