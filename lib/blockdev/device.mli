(** One block-device interface over every backend.

    {!Disk} (a single simulated NVMe drive) and {!Stripe} (RAID-0 over
    several) expose the same data path but distinct types, which used
    to force every consumer — the file systems, the object store, the
    bench harness — to pick a backend at compile time or duplicate
    plumbing. [Device] packages any backend implementing {!S} as a
    single first-class value, so [Fs.mkfs], [Store.format], and the
    experiment builders take {e a device}, not a particular one.

    A backend supplies only what differs per backend: the data path and
    its member disks ({!S.disks}). [Device] owns the members: size,
    power, statistics, teardown and crash recording are written once
    here, over {!disks}, for every backend.

    Data IO has one contract, the zero-copy one: slices handed to
    {!writev}/{!write_slice} are lent, not copied, and must not be
    mutated until the call returns in virtual time (the ownership rule;
    see {!Disk}), and {!read_into} lands in the caller's buffer. No
    backend has a Bytes write; {!read} is built once here on
    {!read_into}. *)

module Slice = Msnap_util.Slice

(** What a block-device backend must provide. Durability semantics:
    writes become durable in issue order per command; [flush] drains the
    queue; [barrier] is the ordering point consumers should use when
    they need "everything before is on media before anything after" —
    today both backends implement it as [flush], but the signature keeps
    the distinction so a future backend with native ordered commands can
    do better. *)
module type S = sig
  type t

  val writev : t -> (int * Slice.t) list -> unit

  val write_slice : t -> off:int -> Slice.t -> unit
  (** [writev] of one segment. *)

  val read_into : t -> off:int -> Slice.t -> unit
  val flush : t -> unit
  val barrier : t -> unit

  val disks : t -> Disk.t array
  (** The member disks, in {!fail_power} order. Not a copy: the caller
      must not mutate it. *)
end

type t = Dev : (module S with type t = 'a) * 'a -> t
(** A backend module packed with its instance. Consumers normally use
    the functions below; the constructor is exposed so new backends can
    be packed without touching this module. *)

val of_disk : Disk.t -> t
val of_stripe : Stripe.t -> t

val testbed : mib:int -> t
(** The paper's testbed layout: two [mib]-MiB disks, [nvme0] and
    [nvme1], striped in 64 KiB units. *)

(** {2 Data path} *)

val writev : t -> (int * Slice.t) list -> unit
val write_slice : t -> off:int -> Slice.t -> unit
val read_into : t -> off:int -> Slice.t -> unit

val read : t -> off:int -> len:int -> Bytes.t
(** A fresh buffer filled by {!read_into}. *)

val flush : t -> unit
val barrier : t -> unit

(** {2 Member disks} *)

val disks : t -> Disk.t array
(** {!S.disks} of the backend: member [i] is [(disks dev).(i)]. *)

val size : t -> int
(** The sum of the members' sizes. *)

val fail_power : t -> torn_seed:int -> unit
(** {!Disk.fail_power} every member, member [i] with seed
    [torn_seed + i]. *)

val restore_power : t -> unit

val stats : t -> Disk.stats
(** Summed over the members. *)

val reset_stats : t -> unit

val dispose : t -> unit
(** End-of-run teardown: {!Disk.dispose} every member, handing the
    media's chunks to the next device built on this domain. The device
    must be idle and never used again. *)

(** {2 Crash-schedule capture (host-only)}

    Members register with the recorder in {!disks} order, so recorded
    member [i] corresponds to live crash seed [torn_seed + i]. Attaching
    a recorder never changes a simulated value. The crash checker's
    image reconstruction reaches the raw media of member [i] with
    {!Disk.peek}/{!Disk.poke} on [(disks dev).(i)]. *)

val attach_record : t -> Record.t -> unit
val detach_record : t -> unit
