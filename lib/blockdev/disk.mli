(** Simulated NVMe solid-state disk.

    The device stores real bytes, enforces sector-granularity write
    atomicity, models command latency ([Costs.disk_base] + transfer time)
    and limited internal parallelism ([Costs.disk_channels] concurrent
    commands; further commands queue). A power-failure hook tears writes
    that are in flight when the crash fires: a prefix of the command's
    sectors (chosen deterministically from the crash seed) reaches the
    medium, the rest keep their old contents — exactly the failure model
    the paper's crash-consistency argument relies on ("disks provide
    atomicity at the level of individual sectors").

    {2 Zero-copy write path and the ownership rule}

    Data IO is {!writev} (with {!write_slice}, its one-segment form)
    and {!read_into}; neither moves payload bytes at issue: the device
    keeps references to the caller's slices while the command is in
    flight and copies into the medium exactly once, at commit time. In exchange the caller promises the
    {e ownership rule}: a slice handed to a write must not be mutated
    until the command completes in virtual time. Under that rule the
    commit-time copy — and a crash tear — see precisely the bytes as
    they were at issue, preserving the issue-time-snapshot crash model.
    With [Slice.debug_checks] on, the device records a content checksum
    per segment at issue and verifies it at commit/tear, so violations
    fail loudly in tests.

    {2 The medium}

    Contents live off the OCaml heap, in 256 KiB chunks (char
    [Bigarray] views of {!Msnap_util.Pool} slab memory) taken on a
    chunk's first write. Each chunk records
    which of its 4 KiB pages were ever written: the first write to a
    page zeroes only the part the write leaves uncovered, and reads of
    unwritten pages return zeros without touching the chunk. Like the
    device's DMA, writes into the medium bypass the CPU caches
    (streaming stores into 64-byte-aligned chunks), and every operation
    that writes the medium ends with one store fence. Host-only: no
    simulated cost depends on the layout or on how bytes move. Every
    offset and length is checked before a byte moves, so out-of-range
    arguments raise [Invalid_argument] from every entry point,
    [peek]/[poke] included. *)

module Slice = Msnap_util.Slice

type t

val create : ?name:string -> size:int -> unit -> t
(** [size] in bytes, rounded up to a whole sector. Contents start zeroed. *)

val size : t -> int

(** {2 IO — block until the command completes (in virtual time)} *)

val writev : t -> (int * Slice.t) list -> unit
(** Scatter/gather write: all segments are issued as one command; latency
    is one [disk_base] plus the summed transfer time, which is the benefit
    vectored IO exists to provide. Atomicity is still per-sector, and
    sectors reach the medium *in segment order* (an ordered SGL): a crash
    tears the command to a strict prefix. The object store relies on this
    to append its commit record as the final segment of one command.
    Zero-copy: segments must obey the ownership rule (see above). *)

val write_slice : t -> off:int -> Slice.t -> unit
(** [writev] of one segment. *)

val read_into : t -> off:int -> Slice.t -> unit
(** Read [Slice.length dst] bytes at [off] directly into the caller's
    buffer — no intermediate allocation. Raises [Powered_off] if power
    fails at any point of the transfer, even if it is back before the
    transfer would have ended. *)

val flush : t -> unit
(** Drain the device queue (used by fsync paths). *)

(** {2 Crash injection} *)

val fail_power : t -> torn_seed:int -> unit
(** Simulate power loss: every in-flight or queued command is torn at a
    sector boundary chosen from [torn_seed]; subsequent IO raises
    [Powered_off] until {!restore_power}. *)

val restore_power : t -> unit

exception Powered_off

val torn_sector_budget :
  rng:Msnap_util.Rng.t -> elapsed:int -> dur:int -> total_sectors:int -> int
(** The number of whole sectors an in-flight command commits when power
    fails [elapsed] virtual ns into its [dur]-ns transfer — the exact
    arithmetic {!fail_power} applies, exported so the crash-schedule
    checker's offline image reconstruction cannot drift from it. Draws
    one value from [rng] iff [total_sectors > 0]. *)

(** {2 Crash-schedule capture (host-only)}

    See {!Record}. Attaching a recorder never changes a simulated
    value; [peek]/[poke] access the medium directly with no power
    check, no latency and no stats, for use by the crash checker's
    image reconstruction and the parity tests. *)

val attach_record : t -> Record.t -> unit
val detach_record : t -> unit
val peek : t -> off:int -> len:int -> Bytes.t
val poke : t -> off:int -> data:Bytes.t -> unit

(** {2 Statistics} *)

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ns : int;  (** Total device-busy time across channels. *)
}

val stats : t -> stats
val reset_stats : t -> unit

val dispose : t -> unit
(** Park every chunk of the medium on this domain's free stack, where
    the next disk created on the domain takes them for its first writes.
    Chunks are slab memory ({!Msnap_util.Pool.alloc_chunk}) that nothing
    frees: the chunks of a disk that is never disposed are lost until
    the process exits. Only valid once the device is idle and will
    never be read again — i.e. at the end of a simulation run. *)
