module Slice = Msnap_util.Slice

module type S = sig
  type t

  val name : t -> string
  val size : t -> int
  val writev : t -> (int * Slice.t) list -> unit
  val write_slice : t -> off:int -> Slice.t -> unit
  val read_into : t -> off:int -> Slice.t -> unit
  val flush : t -> unit
  val barrier : t -> unit
  val fail_power : t -> torn_seed:int -> unit
  val restore_power : t -> unit
  val stats : t -> Disk.stats
  val reset_stats : t -> unit
  val dispose : t -> unit
  val attach_record : t -> Record.t -> unit
  val detach_record : t -> unit
  val members : t -> int
  val member_size : t -> member:int -> int
  val peek : t -> member:int -> off:int -> len:int -> Bytes.t
  val poke : t -> member:int -> off:int -> data:Bytes.t -> unit
end

type t = Dev : (module S with type t = 'a) * 'a -> t

(* Both current backends make writes durable at command completion, so a
   barrier — "all prior IO on media before any later IO" — needs exactly
   a queue drain. *)
module Disk_backend = struct
  include Disk

  let barrier = Disk.flush
  let members _ = 1

  let check_member d member =
    if member <> 0 then
      invalid_arg (Printf.sprintf "%s: no member %d" (Disk.name d) member)

  let member_size d ~member =
    check_member d member;
    Disk.size d

  let peek d ~member ~off ~len =
    check_member d member;
    Disk.peek d ~off ~len

  let poke d ~member ~off ~data =
    check_member d member;
    Disk.poke d ~off ~data
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

let name (Dev ((module D), d)) = D.name d
let size (Dev ((module D), d)) = D.size d
let writev (Dev ((module D), d)) segs = D.writev d segs
let write_slice (Dev ((module D), d)) ~off s = D.write_slice d ~off s
let read_into (Dev ((module D), d)) ~off s = D.read_into d ~off s

let read dev ~off ~len =
  let buf = Bytes.create len in
  read_into dev ~off (Slice.of_bytes buf);
  buf

let flush (Dev ((module D), d)) = D.flush d
let barrier (Dev ((module D), d)) = D.barrier d
let fail_power (Dev ((module D), d)) ~torn_seed = D.fail_power d ~torn_seed
let restore_power (Dev ((module D), d)) = D.restore_power d
let stats (Dev ((module D), d)) = D.stats d
let reset_stats (Dev ((module D), d)) = D.reset_stats d
let dispose (Dev ((module D), d)) = D.dispose d
let attach_record (Dev ((module D), d)) r = D.attach_record d r
let detach_record (Dev ((module D), d)) = D.detach_record d
let members (Dev ((module D), d)) = D.members d
let member_size (Dev ((module D), d)) ~member = D.member_size d ~member
let peek (Dev ((module D), d)) ~member ~off ~len = D.peek d ~member ~off ~len
let poke (Dev ((module D), d)) ~member ~off ~data = D.poke d ~member ~off ~data
