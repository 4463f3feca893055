(** Address spaces: mappings, the access path, and the write-fault hook.

    This is the simulator's equivalent of the FreeBSD [vm_map] plus the
    fault handler MemSnap extends. Every byte the databases read or write
    flows through {!write} / {!read}, which translate through the TLB and
    page tables, take minor faults on read-protected pages, and dispatch to
    the mapping's registered fault handler — the hook MemSnap uses for
    per-thread dirty-set tracking and checkpoint-in-progress COW. *)

type t

type frame_source =
  [ `Zero  (** anonymous zero-fill *)
  | `Page of Phys.page
    (** map this frame: a pager that supplies contents allocates it
        from {!phys} and fills it, charging the copy itself *) ]

type pager = { page_in : int -> frame_source }
(** [page_in rel_page] supplies the initial frame for page [rel_page] of
    the mapping. *)

type mapping

type fault = {
  f_aspace : t;
  f_mapping : mapping;
  f_vpn : int;
  f_loc : Ptloc.t;
  f_page : Phys.page;
}
(** A minor write fault on a present but read-protected page. *)

val create : ?name:string -> Phys.t -> t

val name : t -> string
val phys : t -> Phys.t
val page_table : t -> Ptable.t
val tlb : t -> Ptloc.t Tlb.t
(** The TLB caches the PTE location of each translation (once resolved)
    so a simulated hit also skips the host-side radix walk. *)

val map :
  t ->
  name:string ->
  va:int ->
  len:int ->
  ?writable:bool ->
  ?new_pages_writable:bool ->
  ?pager:pager ->
  ?on_write_fault:(fault -> unit) ->
  unit ->
  mapping
(** Install a mapping of [len] bytes at page-aligned [va].
    [new_pages_writable = false] (MemSnap's configuration) makes freshly
    paged-in PTEs read-only so the first store takes a tracking fault.
    [on_write_fault], fixed for the mapping's life, handles a store to a
    read-only PTE and must leave it writable; without one the PTE is
    simply made writable. Raises [Invalid_argument] on overlap or
    misalignment. *)

val unmap : t -> mapping -> unit
(** Remove the mapping, dropping PTEs and freeing frames whose last
    reference this was. *)

val mapping_of_fault_rel_page : fault -> int
(** Page index of the fault within its mapping. *)

val find_mapping : t -> name:string -> mapping option

(** {2 The access path} *)

val write : t -> va:int -> Bytes.t -> unit
(** Store bytes, faulting as needed, charging TLB/fault/memcpy costs. *)

val read : t -> va:int -> len:int -> Bytes.t

val read_into : t -> va:int -> Bytes.t -> pos:int -> len:int -> unit


val page_for_read : t -> va:int -> Phys.page

(** {2 Kernel-side protection operations} *)

val protect_page : t -> vpn:int -> unit
(** Clear the PTE writable bit (direct slot write; the caller charges
    cost and performs shootdowns). *)

val shootdown : t -> int list -> unit
(** TLB shootdown for the given VPNs (cost charged inside). *)
