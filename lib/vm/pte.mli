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

val pp : t -> string
