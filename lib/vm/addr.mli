(** Virtual-address constants and arithmetic.

    The simulated MMU uses the x86-64 4-level layout: 4 KiB pages, 9 bits
    of index per level, 48-bit virtual addresses. MemSnap regions live at
    the high end of the address space so that persisted pointers stay valid
    across restarts (the paper maps regions at unique fixed addresses). *)

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)
val levels : int (* 4 *)
val index_bits : int (* 9 *)
val fanout : int (* 512 *)

val msnap_base : int
(** Base virtual address of the MemSnap region arena (high canonical half
    as far as a 48-bit sim allows). *)

val vpn_of_va : int -> int
val va_of_vpn : int -> int
val page_offset : int -> int
val page_align_down : int -> int
val page_align_up : int -> int
val pages_spanned : off:int -> len:int -> int
(** Number of pages touched by the byte range [off, off+len). *)

val index : level:int -> int -> int
(** [index ~level vpn] is the radix index of [vpn] at [level] (0 = leaf,
    [levels-1] = root). *)
