(** Generic block allocator shared by the object store and the file
    systems.

    A bitmap with a rotating cursor that prefers contiguous runs, so
    sequential allocations land sequentially on disk: this is what lets
    the object store turn random page updates into sequential IO (§3).
    The bitmap is volatile; its users rebuild it at mount with
    {!mark_allocated}. *)

type t

exception Out_of_space

val create : total_blocks:int -> reserved:int -> t
(** Blocks [0, reserved) are permanently allocated (superblocks, journal
    areas, ...). *)

val alloc_run : t -> int -> int list
(** Allocate [n] blocks, contiguous if possible, ascending order.
    Raises [Out_of_space] if fewer than [n] are free. *)

val free_now : t -> int list -> unit
(** Free blocks at once. A copy-on-write user frees a superseded block
    only after the commit that dereferenced it is durable. *)

val mark_allocated : t -> int -> unit
(** Idempotent; used while rebuilding state at mount. *)

val is_allocated : t -> int -> bool
val free_blocks : t -> int
