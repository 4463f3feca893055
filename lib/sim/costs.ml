let syscall = 400

let memcpy n = (n + 11) / 12

let fault_entry = 900
let pte_visit = 6
let pte_update = 120
let pt_walk = 30
let pt_walk_sw = 360
let tlb_shootdown = 3_000
let tlb_invalidate_page = 100
let tlb_flush_all = 8_000
let tlb_flush_threshold = 64
let page_alloc = 500
let page_copy = 800

(* Device: latency = disk_base + size * num / den.
   Calibration against Table 6 "Disk" (one outstanding IO, 64 KiB stripe
   over two devices, so a 4 KiB..64 KiB IO lands on one device):
     4 KiB  -> 15500 + 4096*0.45  = 17.3 us   (paper: 17)
     64 KiB -> 15500 + 65536*0.45 = 45.0 us   (paper: 44) *)
let disk_base = 15_500
let disk_per_byte_num = 45
let disk_per_byte_den = 100
let disk_xfer n = n * disk_per_byte_num / disk_per_byte_den
let disk_channels = 8
let sector = 512

let buffer_cache_lookup = 300
let vfs_call = 350
let rangelock = 250
let journal_entry = 1_200
let fsync_resident_scan_per_page = 12
let cow_indirect_update = 450

let thread_stop_signal = 2_000

let io_initiate = 400
let cow_node_cpu = 300

let pte_update_bulk = 25
