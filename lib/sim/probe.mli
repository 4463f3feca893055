(** Typed instrumentation points.

    Every counter, latency histogram, CPU-accounting bucket, and trace
    span in the simulator is identified by a probe: a value carrying the
    subsystem it belongs to and its wire name. Using first-class values
    instead of raw strings makes instrumentation typos compile errors
    and gives the {!Trace} subsystem a category for free — a span
    emitted through a [Db] probe lands on the "db" track of the Chrome
    trace without the call site saying so.

    The well-known probes below cover every metric the bench harness
    reads; their [name]s are exactly the strings the seed used, so
    rendered tables and [Metrics.counters] output are unchanged by the
    migration. [make] is the escape hatch for ad-hoc names (tests,
    one-off experiments). *)

type subsystem =
  | Sched
  | Vm
  | Blockdev
  | Fs
  | Objstore
  | Msnap
  | Aurora
  | Db
  | Host  (** anything outside the simulated stack (tests, harness) *)

val subsystem_name : subsystem -> string
(** Lower-case wire name ("sched", "vm", ..., "db", "host"); used as the
    Chrome trace category. *)

type t

val make : subsystem -> string -> t
(** Ad-hoc probe. Probes are interned by (subsystem, name): two [make]
    calls with the same name return the same probe (and so address the
    same counter/histogram). *)

val name : t -> string
(** The wire name — what {!Metrics.counters} reports and what appears as
    the event name in exported traces. *)

val subsystem : t -> subsystem

val id : t -> int
(** Dense id assigned at interning time, indexing the flat per-probe
    columns: a trace scope's summary, and a run's metric counters and
    histograms. Stable within a process. *)

val count : unit -> int
(** Number of distinct probes interned so far; ids are [0..count()-1]. *)

val of_id : int -> t
(** Inverse of {!id}. *)

(** {2 Well-known probes}

    Grouped by subsystem. The [Db] group keeps the historical flat names
    ("fsync", "write", ...) because Tables 7/9 render them verbatim. *)

(* db engines *)
val db_fsync : t            (* "fsync" *)
val db_write : t            (* "write" *)
val db_read : t             (* "read" *)
val db_memsnap : t          (* "memsnap" — msync(MS_SNAP) calls issued by a DB *)
val db_checkpoint : t       (* "checkpoint" *)
val db_memtable_flush : t   (* "memtable_flush" *)
val db_compaction : t       (* "compaction" *)
val db_pg_checkpoint : t    (* "pg_checkpoint" *)

(* msnap core *)
val msnap_persist : t            (* "msnap_persist" *)
val msnap_persist_reset : t      (* "msnap_persist.reset" *)
val msnap_persist_initiate : t   (* "msnap_persist.initiate" *)
val msnap_persist_wait : t       (* "msnap_persist.wait" *)
val msnap_persist_total : t      (* "msnap_persist.total" *)
val msnap_wait : t               (* "msnap_wait" *)
val msnap_first_fault : t        (* "msnap.first_fault" — flow start *)
val msnap_take_dirty : t         (* "msnap.take_dirty" — flow step *)
val msnap_pte_reset : t          (* "msnap.pte_reset" — flow step *)
val msnap_durable : t            (* "msnap.durable" — flow end *)

(* object store *)
val objstore_commits : t         (* "objstore.commits" *)
val objstore_flush : t           (* "objstore.flush" — group-commit drain span *)
val objstore_commit_queued : t   (* "objstore.commit_queued" *)
val objstore_device_commit : t   (* "objstore.device_commit" — flow step *)

(* vm *)
val vm_write_fault : t   (* "vm.write_fault" *)
val vm_read_fault : t    (* "vm.read_fault" *)
val vm_page_in : t       (* "vm.page_in" *)
val vm_pt_walk : t       (* "vm.pt_walk" — verbose-only instant *)
val vm_shootdown : t     (* "vm.tlb_shootdown" *)

(* scheduler *)
val sched_spawn : t      (* "sched.spawn" *)
val sched_block : t      (* "sched.block" *)
val sched_wake : t       (* "sched.wake" *)
val sched_thread : t     (* "sched.thread" — whole-lifetime span *)

(* block device *)
val disk_write : t       (* "disk.write" *)
val disk_read : t        (* "disk.read" *)
val disk_flush : t       (* "disk.flush" *)

(* file systems *)
val fs_write : t         (* "fs.write" *)
val fs_fsync : t         (* "fs.fsync" *)
val fs_journal : t       (* "fs.journal" *)
val fs_writeback : t     (* "fs.writeback" *)
val fs_msync : t         (* "fs.msync" *)

(* aurora *)
val aurora_checkpoint : t      (* "aurora.checkpoint" *)
val aurora_stall : t           (* "aurora.stall" *)
val aurora_shadow : t          (* "aurora.shadow" *)
val aurora_io : t              (* "aurora.io" *)
val aurora_collapse : t        (* "aurora.collapse" *)
val aurora_checkpoint_app : t  (* "aurora.checkpoint_app" *)
val aurora_cow_fault : t       (* "aurora.cow_fault" *)

(** {2 CPU-accounting buckets}

    Typed keys for {!Sched.with_bucket}. Bucket names are what
    {!Sched.account_report} reports, so the constants keep the seed's
    exact strings. *)
module Bucket : sig
  type t

  val name : t -> string

  val id : t -> int
  (** Dense id in [0..count-1]; indexes the scheduler's flat per-bucket
      accounting array. ["user"] is id 0 (every thread's initial
      bucket). *)

  val of_id : int -> t
  (** Inverse of {!id}. *)

  val count : int
  (** Number of buckets. *)

  val user : t          (* "user" *)
  val io : t            (* "io" *)
  val log : t           (* "log" *)
  val write : t         (* "write" *)
  val fsync : t         (* "fsync" *)
  val read : t          (* "read" *)
  val memsnap : t       (* "memsnap" *)
  val memsnap_flush : t (* "memsnap flush" *)
  val page_faults : t   (* "page faults" *)
end
