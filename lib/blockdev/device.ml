module Slice = Msnap_util.Slice

module type S = sig
  type t

  val writev : t -> (int * Slice.t) list -> unit
  val write_slice : t -> off:int -> Slice.t -> unit
  val read_into : t -> off:int -> Slice.t -> unit
  val flush : t -> unit
  val barrier : t -> unit
  val disks : t -> Disk.t array
end

type t = Dev : (module S with type t = 'a) * 'a -> t

(* Both current backends make writes durable at command completion, so a
   barrier — "all prior IO on media before any later IO" — needs exactly
   a queue drain. *)
module Disk_backend = struct
  include Disk

  let barrier = Disk.flush
  let disks d = [| d |]
end

module Stripe_backend = struct
  include Stripe

  let barrier = Stripe.flush
end

let of_disk d = Dev ((module Disk_backend), d)
let of_stripe s = Dev ((module Stripe_backend), s)

let testbed ~mib =
  let disk name = Disk.create ~name ~size:(Msnap_util.Size.mib mib) () in
  of_stripe (Stripe.create [ disk "nvme0"; disk "nvme1" ])

let writev (Dev ((module D), d)) segs = D.writev d segs
let write_slice (Dev ((module D), d)) ~off s = D.write_slice d ~off s
let read_into (Dev ((module D), d)) ~off s = D.read_into d ~off s

let read dev ~off ~len =
  let buf = Bytes.create len in
  read_into dev ~off (Slice.of_bytes buf);
  buf

let flush (Dev ((module D), d)) = D.flush d
let barrier (Dev ((module D), d)) = D.barrier d
let disks (Dev ((module D), d)) = D.disks d

(* --- the member disks, one by one --- *)

let size dev = Array.fold_left (fun a d -> a + Disk.size d) 0 (disks dev)

(* Member [i] tears with seed [torn_seed + i]; members register with a
   recorder in the same order, so recorded member [i] replays it. *)
let fail_power dev ~torn_seed =
  Array.iteri (fun i d -> Disk.fail_power d ~torn_seed:(torn_seed + i)) (disks dev)

let restore_power dev = Array.iter Disk.restore_power (disks dev)

let stats dev =
  Array.fold_left
    (fun (acc : Disk.stats) d ->
      let s = Disk.stats d in
      {
        Disk.reads = acc.reads + s.reads;
        writes = acc.writes + s.writes;
        bytes_read = acc.bytes_read + s.bytes_read;
        bytes_written = acc.bytes_written + s.bytes_written;
        busy_ns = acc.busy_ns + s.busy_ns;
      })
    { Disk.reads = 0; writes = 0; bytes_read = 0; bytes_written = 0; busy_ns = 0 }
    (disks dev)

let reset_stats dev = Array.iter Disk.reset_stats (disks dev)
let dispose dev = Array.iter Disk.dispose (disks dev)
let attach_record dev r = Array.iter (fun d -> Disk.attach_record d r) (disks dev)
let detach_record dev = Array.iter Disk.detach_record (disks dev)
