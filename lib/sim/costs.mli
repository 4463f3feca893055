(** Calibrated hardware/kernel cost model (nanoseconds).

    One place holds every latency constant the simulator charges, so the
    whole reproduction can be re-calibrated against different hardware by
    editing this module. The defaults are fitted to the paper's testbed
    (dual Xeon Silver 4116, two striped Intel 900P PCIe SSDs):

    - the direct-IO column of Table 6 pins the device model
      (4 KiB = 17 µs ... 64 KiB = 44 µs);
    - Table 5 pins the per-page protection-reset and IO-initiation costs
      (5.1 µs / 16 pages, 6.5 µs initiation);
    - Table 2 pins Aurora's stall and shadowing costs.

    Everything else (fsync paths, WAL amplification, checkpoint stalls) is
    emergent from executing the algorithms and charging these primitives. *)

(** {2 CPU primitives} *)

val syscall : int
(** Kernel entry/exit. *)

val memcpy : int -> int
(** [memcpy n] is the time to copy [n] bytes (~12 GiB/s). *)

(** {2 Virtual-memory primitives} *)

val fault_entry : int
(** Trap + fault-handler dispatch for a minor write fault. *)

val pte_visit : int
(** Read one PTE during a sequential, prefetch-friendly scan of a leaf
    node (the "traverse the mapping's page tables" baseline of Fig. 1). *)

val pte_update : int
(** Read-modify-write one PTE in place (one cache line touch). This is the
    per-page cost of the trace-buffer strategy. *)

val pt_walk : int
(** Hardware TLB-miss walk (page-structure caches warm). *)

val pt_walk_sw : int
(** Software walk from the root with table locking — the per-page cost of
    resetting protection without a trace buffer (4 dependent cache misses
    plus lock). *)

val tlb_shootdown : int
(** Fixed IPI cost of a selective TLB shootdown. *)

val tlb_invalidate_page : int
(** Per-page invalidation added to a selective shootdown. *)

val tlb_flush_all : int
(** Full TLB flush, used above {!tlb_flush_threshold} pages. *)

val tlb_flush_threshold : int

val page_alloc : int
(** Allocate + zero a 4 KiB frame. *)

val page_copy : int
(** Copy a 4 KiB frame (COW fault body). *)

(** {2 Storage device (one Intel 900P-class NVMe SSD)} *)

val disk_base : int
(** Per-command latency floor. *)

val disk_xfer : int -> int
(** [disk_xfer n] transfer component for [n] bytes: [n * 45 / 100] ns
    (~2.2 GiB/s per device). *)

val disk_channels : int
(** Commands one device can service concurrently. *)

val sector : int
(** Atomic write unit of the device, bytes. *)

(** {2 Kernel IO stack} *)

val buffer_cache_lookup : int
val vfs_call : int
(** VFS dispatch overhead per file-system operation. *)

val rangelock : int
(** File range-lock acquire+release per write. *)

val journal_entry : int
(** CPU cost to construct one journal record (FFS soft updates). *)

val fsync_resident_scan_per_page : int
(** fsync/msync scans the file's resident page list to find dirty pages;
    this is the per-resident-page cost. It is why baseline fsync slows
    down as the mapped file grows (Fig. 5). *)

val cow_indirect_update : int
(** ZFS-style COW: CPU cost to re-write one indirect block in memory. *)

(** {2 Scheduling} *)

val thread_stop_signal : int
(** Cost to interrupt one running thread at a safe point (Aurora's
    stop-all-threads barrier charges this per thread). *)

(** {2 Object store} *)

val io_initiate : int
(** CPU cost to prepare one scatter/gather segment of a vectored IO
    (Table 5 "Initiating Writes": ~6.5 us / 16 pages). *)

val cow_node_cpu : int
(** CPU cost to COW-update one radix-tree node in memory. *)

val pte_update_bulk : int
(** Read-modify-write one PTE inside a tight range loop (prefetched,
    amortized locking) — what mapping-wide scans like Aurora's shadowing
    pay per present page, as opposed to {!pte_update} for isolated
    updates. *)
