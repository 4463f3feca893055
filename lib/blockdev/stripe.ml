module Sync = Msnap_sim.Sync
module Size = Msnap_util.Size
module Slice = Msnap_util.Slice

type t = { disks : Disk.t array; unit_size : int }

let create ?(unit_size = Size.kib 64) disks =
  if disks = [] then invalid_arg "Stripe.create: no disks";
  let disks = Array.of_list disks in
  let sz = Disk.size disks.(0) in
  Array.iter
    (fun d ->
      if Disk.size d <> sz then invalid_arg "Stripe.create: unequal disk sizes")
    disks;
  if sz mod unit_size <> 0 then
    invalid_arg "Stripe.create: disk size not a multiple of the stripe unit";
  { disks; unit_size }

let size t = Array.fold_left (fun a d -> a + Disk.size d) 0 t.disks
let disks t = t.disks
let ndisks t = Array.length t.disks

(* Split [off, len) into (dev, dev_off, seg_off, seg_len) chunks. *)
let chunks t off len =
  let rec go acc off len seg_off =
    if len = 0 then List.rev acc
    else begin
      let stripe = off / t.unit_size in
      let within = off mod t.unit_size in
      let dev = stripe mod ndisks t in
      let dev_off = (stripe / ndisks t * t.unit_size) + within in
      let n = min len (t.unit_size - within) in
      go ((dev, dev_off, seg_off, n) :: acc) (off + n) (len - n) (seg_off + n)
    end
  in
  go [] off len 0

let check_range t off len =
  if off < 0 || len < 0 || off + len > size t then
    invalid_arg
      (Printf.sprintf "Stripe: IO out of range (off=%d len=%d size=%d)" off len
         (size t))

(* Run one job per device concurrently; wait for all of them, then
   raise the first failure in member order. When nothing else is due,
   the first member's job runs in the caller's fiber ([Sync.fork_join]). *)
let fanout t per_dev jobs =
  Sync.fork_join ~name:"stripe-io"
    (List.filter_map
       (fun (dev, job) ->
         if job = [] then None else Some (fun () -> per_dev t.disks.(dev) job))
       jobs)

(* Write coalescing: collapse consecutive per-member segments that are
   both device-offset-adjacent and contiguous in the same backing buffer
   into one wider sub-slice. Purely host-side — the member command's
   simulated latency is charged from its total byte count either way,
   and a coalesced run commits (or tears) the exact bytes the unmerged
   sequence would: the merged slice is the same contiguous view, and
   torn prefixes advance sector-by-sector in the same order. *)
let coalesce segs =
  let rec go acc = function
    | [] -> List.rev acc
    | (o, s) :: rest -> (
      match acc with
      | (po, ps) :: tl
        when po + Slice.length ps = o
             && Slice.buf ps == Slice.buf s
             && Slice.pos ps + Slice.length ps = Slice.pos s ->
        let merged =
          Slice.make (Slice.buf ps) ~pos:(Slice.pos ps)
            ~len:(Slice.length ps + Slice.length s)
        in
        go ((po, merged) :: tl) rest
      | _ -> go ((o, s) :: acc) rest)
  in
  go [] segs

let writev t segs =
  List.iter (fun (off, s) -> check_range t off (Slice.length s)) segs;
  (* Group all chunks by device, preserving order. Each per-device
     segment is a sub-slice of the caller's slice — no payload bytes
     move here; the ownership rule carries through to the member disks. *)
  let per_dev = Array.make (ndisks t) [] in
  List.iter
    (fun (off, s) ->
      List.iter
        (fun (dev, dev_off, seg_off, n) ->
          per_dev.(dev) <- (dev_off, Slice.sub s ~pos:seg_off ~len:n) :: per_dev.(dev))
        (chunks t off (Slice.length s)))
    segs;
  let jobs =
    List.init (ndisks t) (fun dev -> (dev, coalesce (List.rev per_dev.(dev))))
  in
  fanout t (fun disk segs -> Disk.writev disk segs) jobs

let write_slice t ~off s = writev t [ (off, s) ]

let read_into t ~off dst =
  let len = Slice.length dst in
  check_range t off len;
  (* Each member device reads straight into its disjoint range of the
     caller-visible buffer — no per-device staging allocation. *)
  let per_dev = Array.make (ndisks t) [] in
  List.iter
    (fun (dev, dev_off, seg_off, n) ->
      per_dev.(dev) <- (dev_off, Slice.sub dst ~pos:seg_off ~len:n) :: per_dev.(dev))
    (chunks t off len);
  let jobs = List.init (ndisks t) (fun dev -> (dev, List.rev per_dev.(dev))) in
  fanout t
    (fun disk pieces ->
      List.iter (fun (dev_off, piece) -> Disk.read_into disk ~off:dev_off piece) pieces)
    jobs

let flush t = Array.iter Disk.flush t.disks
