(** Byte slices: a view [{buf; pos; len}] into a [Bytes.t], the currency
    of the zero-copy data plane.

    Every layer of the IO stack (block device, stripe, object store, file
    system) passes slices instead of copying payloads into staging
    buffers, so a page frame travels from the application to the disk
    medium with exactly one copy — the commit-time blit into the medium.

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

    Devices {!borrow} each slice at issue and {!release} it at
    completion. When {!debug_checks} is on, mutating a borrowed slice
    through this module raises {!Borrowed}, and the device additionally
    verifies a content checksum at commit time, so a violation anywhere
    (even via a raw alias of [buf]) is caught in tests. *)

type t

exception Borrowed of string

val make : Bytes.t -> pos:int -> len:int -> t
(** View of [buf.[pos .. pos+len-1]]. Raises [Invalid_argument] when out
    of bounds. *)

val of_bytes : Bytes.t -> t
(** Whole-buffer view; no copy. *)

val of_string : string -> t
(** Read-only view of a string; no copy. The slice aliases the string's
    storage, so mutating operations on it are forbidden (enforced when
    {!debug_checks} is on; undefined behaviour otherwise). *)

val sub : t -> pos:int -> len:int -> t
(** Sub-view, relative to the slice. No copy. *)

val buf : t -> Bytes.t
val pos : t -> int
val length : t -> int

val to_string : t -> string

val blit_to_bytes : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
(** Copy out of the slice (always allowed — reads don't need ownership). *)

val blit_from_bytes : Bytes.t -> src_pos:int -> t -> dst_pos:int -> len:int -> unit
(** Copy into the slice. Checked mutation: raises {!Borrowed} when
    {!debug_checks} is on and the slice is borrowed. *)

val fill : t -> char -> unit
(** Checked mutation (see {!blit_from_bytes}). *)

(** {2 Borrow discipline} *)

val debug_checks : bool ref
(** Default [false]. Turn on in tests: checked mutations of borrowed
    slices raise, and devices verify content checksums at commit. *)

val borrow : t -> unit
(** Mark the slice lent out to an in-flight command. Cheap (one integer
    increment); called by devices at issue. *)

val release : t -> unit
(** Return the borrow; called by devices at completion (or tear). *)

val borrows : t -> int

val checksum : t -> int
(** Content hash used by devices under {!debug_checks} to detect
    ownership-rule violations that bypass this module. Host-only: never
    feeds simulated state. *)
